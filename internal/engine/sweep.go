package engine

import (
	"context"
	"errors"

	"repliflow/internal/core"
)

// SweepPoint is one confirmed point of an incremental Pareto sweep: the
// solution (carrying its anytime gap when the sweep is budgeted), its
// position on the front, and the sweep progress at confirmation time.
type SweepPoint struct {
	// Solution achieves the point; Solution.Cost is the (period, latency)
	// pair, Solution.Gap its anytime certification when budgeted.
	Solution core.Solution
	// Index is the 0-based position of the point on the front.
	Index int
	// Explored counts the units of the sweep done when the point was
	// confirmed. A sweep with a front pass has one unit, the pass, done
	// before its first point. A walk's units are its steps, one per point
	// it finds.
	Explored int
	// Total is the number of units of the sweep as far as it is known: 1
	// with a front pass; on a walk, Explored + 1 until the walk has ended
	// and Explored after.
	Total int
}

// SweepStats summarizes a sweep when SweepFront returns, in the units of
// SweepPoint. Every sweep starts at 0 of 1. On a completed sweep
// Explored == Total; on one cut short (context expiry, observer abort)
// Total - Explored is 1, the pass or walk step that was cut — every
// point emitted before the cut stands.
type SweepStats struct {
	Points   int
	Explored int
	Total    int
}

// SweepObserver receives the incremental output of SweepFront.
type SweepObserver struct {
	// Point is called for each confirmed front point, in increasing-period
	// order, as soon as dominance proves it final. Required. Returning a
	// non-nil error stops the sweep; the error is returned by SweepFront.
	Point func(SweepPoint) error
	// Progress, when non-nil, is called with the units resolved so far
	// (see SweepPoint.Explored): 0 of 1 when the sweep starts, then after
	// the front pass and after every walk step — so slow sweeps stay
	// observable (heartbeats, job progress).
	Progress func(explored, total int)
}

// SweepFront computes the period/latency trade-off curve of the instance
// incrementally: each front point is delivered to the observer as soon as
// it is proven final, instead of after the whole sweep. The emitted
// sequence is identical to the slice ParetoFront returns — ParetoFront is
// a thin wrapper collecting it.
//
// Where the instance is solved exactly and its prepared solver has a
// front pass (core.PreparedSolver.Front: the exact pipeline, fork,
// fork-join and comm-pipeline cells), one pass names every front latency
// at once, and each point is the period-under-latency solve at one of
// them. Every other sweep — irreducible SP, comm-fork, the polynomial
// cells, heuristically solved and budget-bounded instances — is
// core.Walk over the engine: the walk of core.ParetoFront, its bounded
// solves run on the sweep's prepared pool, a point's pair of solves
// concurrently. A positive Options.AnytimeBudget is a whole-sweep
// target, shared out over the walk's solves as core.Walk documents.
//
// A context expiry (or a Point error) stops the sweep and returns the
// error together with the stats; every point already delivered stands,
// making the partial front a well-formed prefix of the full one.
func (e *Engine) SweepFront(ctx context.Context, pr core.Problem, opts core.Options, obs SweepObserver) (SweepStats, error) {
	if obs.Point == nil {
		return SweepStats{}, errors.New("engine: SweepFront requires an observer with a Point callback")
	}
	pr, err := core.NormalizeSweep(pr)
	if err != nil {
		return SweepStats{}, err
	}
	opts = opts.Normalized()

	s := &sweeper{
		e:     e,
		pr:    pr,
		opts:  opts,
		obs:   obs,
		total: 1,
	}
	s.resolve(0)
	// One prepared pool for the whole sweep (nil when the instance has no
	// prepared capability): every solve of the sweep differs only in
	// Objective/Bound, so cache misses share the pooled solvers'
	// preprocessing and scratch across the entire sweep. Repeated bounds
	// are the cache's: the pooled solvers keep no per-bound results.
	pool := newPreparedPool(pr, opts)
	if pool != nil {
		s.via = pool.solve
	}

	lup := pr
	lup.Objective = core.LatencyUnderPeriod
	lup.Bound = 1
	pul := pr
	pul.Objective = core.PeriodUnderLatency
	pul.Bound = 1
	var next pointSource
	if core.ExactlySolvable(lup, opts) && core.ExactlySolvable(pul, opts) {
		next, err = s.pass(ctx, pool)
	}
	if err == nil {
		if next == nil {
			next = s.walk()
		}
		err = s.run(ctx, next)
	}
	return SweepStats{Points: s.emitted, Explored: s.explored, Total: s.total}, err
}

// sweeper carries the state of one incremental sweep: its progress
// units (the front pass, or the steps of a walk), the resolved prefix of
// them, and the dominance accumulator that confirms the points delivered
// to the observer.
type sweeper struct {
	e    *Engine
	pr   core.Problem // normalized: Objective == MinPeriod, validated
	opts core.Options
	obs  SweepObserver

	via      coreSolveFunc // prepared-pool solve override (nil = SolveContext)
	acc      core.FrontAccumulator
	explored int // units [0, explored) are resolved
	total    int // units of the sweep as far as they are known
	emitted  int // points actually delivered to the observer
}

// bounded returns the instance under a bounded objective.
func (s *sweeper) bounded(obj core.Objective, bound float64) core.Problem {
	sub := s.pr
	sub.Objective = obj
	sub.Bound = bound
	return sub
}

// resolve marks the units [0, n) resolved and reports the progress.
func (s *sweeper) resolve(n int) {
	s.explored = n
	if s.obs.Progress != nil {
		s.obs.Progress(n, s.total)
	}
}

// emit delivers the next confirmed front point to the observer.
func (s *sweeper) emit(point core.Solution) error {
	sp := SweepPoint{Solution: point, Index: s.emitted, Explored: s.explored, Total: s.total}
	s.emitted++
	return s.obs.Point(sp)
}

// run offers the solves a source yields, in order, to the accumulator,
// and delivers each one it confirms as the next point.
func (s *sweeper) run(ctx context.Context, next pointSource) error {
	for {
		sol, ok, err := next(ctx)
		if err != nil || !ok {
			return err
		}
		if point, ok := s.acc.Offer(sol); ok {
			if err := s.emit(point); err != nil {
				return err
			}
		}
	}
}

// pointSource yields the solve that gives the next point of a sweep, or
// false once the front is complete.
type pointSource func(ctx context.Context) (core.Solution, bool, error)

// pass runs the prepared solver's front pass once, under one solve slot:
// the sweep's one unit, resolved once the pass names every front latency.
// It returns them as a source whose solves run on the solver that ran
// the pass (a pipeline solver keeps the pass's per-state lists, so each
// is a walk over them, not a DP solve). A pass cut short has proven no
// point. pass returns a nil source, having run nothing, when the instance
// has no pool or its solver no front pass.
func (s *sweeper) pass(ctx context.Context, pool *preparedPool) (pointSource, error) {
	if pool == nil {
		return nil, nil
	}
	ps := pool.pool.Get().(*core.PreparedSolver)
	if ps == nil {
		return nil, nil
	}
	if !ps.HasFront() {
		pool.pool.Put(ps)
		return nil, nil
	}
	select {
	case s.e.sem <- struct{}{}:
	case <-ctx.Done():
		pool.pool.Put(ps)
		return nil, ctx.Err()
	}
	lats, err := ps.Front(ctx)
	<-s.e.sem
	if err != nil {
		if errors.Is(err, core.ErrSolverPanic) {
			s.e.countPanic(s.bounded(core.PeriodUnderLatency, 1))
		}
		return nil, err
	}
	s.resolve(1)
	via := func(ctx context.Context, pr core.Problem, opts core.Options) (core.Solution, error) {
		return solveOn(ctx, ps, pr, opts)
	}
	return func(ctx context.Context) (core.Solution, bool, error) {
		if len(lats) == 0 {
			return core.Solution{}, false, nil
		}
		latency := lats[0]
		lats = lats[1:]
		sol, err := s.e.solveVia(ctx, s.bounded(core.PeriodUnderLatency, latency), s.opts, via)
		return sol, err == nil, err
	}, nil
}

// walk is the point source of every sweep without a front pass:
// core.Walk, its batches solved on the engine — a lone solve directly,
// the point's pair concurrently. Each step is one unit, and one more is
// counted until the walk has ended.
func (s *sweeper) walk() pointSource {
	w := core.NewWalk(s.pr, s.opts, func(ctx context.Context, probs []core.Problem, opts core.Options) ([]core.Solution, error) {
		if len(probs) > 1 {
			return s.e.solveBatchVia(ctx, probs, opts, s.via)
		}
		sol, err := s.e.solveVia(ctx, probs[0], opts, s.via)
		if err != nil {
			return nil, err
		}
		return []core.Solution{sol}, nil
	})
	return func(ctx context.Context) (core.Solution, bool, error) {
		sol, ok, err := w.Next(ctx)
		if err != nil || !ok && s.total == s.explored {
			return sol, ok, err
		}
		if ok {
			s.explored++
		}
		s.total = s.explored
		if !w.Done() {
			s.total++
		}
		s.resolve(s.explored)
		return sol, ok, nil
	}
}
