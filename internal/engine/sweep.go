package engine

import (
	"context"
	"errors"
	"math"
	"sort"

	"repliflow/internal/core"
	"repliflow/internal/numeric"
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
	// Explored counts the candidate periods resolved when the point was
	// confirmed: a front pass resolves them all at once, a walk those up
	// to the candidate that gave the point its latency, and a scan the
	// rounds solved so far.
	Explored int
	// Total is the number of candidate periods of the whole sweep.
	Total int
}

// SweepStats summarizes a sweep when SweepFront returns. On a completed
// sweep Explored == Total; on one cut short (context expiry, observer
// abort) the difference Total - Explored is the number of candidate
// periods left unexplored — every point emitted before the cut stands.
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
	// Progress, when non-nil, is called after every solve round with the
	// number of candidate periods resolved so far — it advances between
	// points, so slow sweeps stay observable (heartbeats, job progress).
	Progress func(explored, total int)
}

// SweepFront computes the period/latency trade-off curve of the instance
// incrementally: each front point is delivered to the observer as soon as
// it is proven final, instead of after the whole sweep. The emitted
// sequence is identical to the slice ParetoFront returns — ParetoFront is
// a thin wrapper collecting it.
//
// On instances the dispatcher solves exactly, each point is the
// period-under-latency solve at its front latency. Where the prepared
// solver has a front pass (core.PreparedSolver.Front: the exact pipeline,
// fork, fork-join and comm-pipeline cells), one pass names every front
// latency at once. On the other exact instances (irreducible SP,
// comm-fork, the polynomial cells) a walk over the paper's two
// bounded problems names them one at a time: the least period, snapped to
// a candidate, gives the next latency by a latency-under-period solve,
// and a period-under-latency solve strictly below that latency gives the
// next least period, until none is feasible. Heuristically solved and
// budget-bounded instances scan the candidates in ascending batches of
// one worker round each. A positive Options.AnytimeBudget remains a
// whole-sweep wall-clock target: it is split across the rounds of the
// candidate scan the way SolveBatch splits a batch budget.
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

	cands := core.CandidatePeriods(pr)
	if len(cands) == 0 {
		return SweepStats{}, nil
	}
	s := &sweeper{
		e:     e,
		pr:    pr,
		opts:  opts,
		obs:   obs,
		cands: cands,
		acc:   core.NewFrontAccumulator(),
	}
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
	var runErr error
	if core.ExactlySolvable(lup, opts) && core.ExactlySolvable(pul, opts) {
		runErr = s.runFront(ctx, pool)
	} else {
		if opts.AnytimeBudget > 0 && !core.ClassifyCell(core.CellKeyOf(lup)).Complexity.Polynomial() {
			// The budget is a whole-sweep target: split it across the
			// worker rounds the candidate scan occupies, exactly as
			// SolveBatch splits a batch budget.
			s.opts = splitBudget(opts, len(cands), e.workers)
		}
		runErr = s.runScan(ctx)
	}
	return SweepStats{Points: s.emitted, Explored: s.explored, Total: len(s.cands)}, runErr
}

// sweeper carries the state of one incremental sweep: the ascending
// candidate periods, the resolved prefix of them, and the dominance
// accumulator that confirms the points delivered to the observer.
type sweeper struct {
	e     *Engine
	pr    core.Problem // normalized: Objective == MinPeriod, validated
	opts  core.Options
	obs   SweepObserver
	cands []float64

	via      coreSolveFunc // prepared-pool solve override (nil = SolveContext)
	acc      *core.FrontAccumulator
	explored int           // candidates [0, explored) are resolved
	below    core.Solution // the walk's solve strictly below its last latency
	emitted  int           // points actually delivered to the observer
}

// bounded returns the instance under a bounded objective.
func (s *sweeper) bounded(obj core.Objective, bound float64) core.Problem {
	sub := s.pr
	sub.Objective = obj
	sub.Bound = bound
	return sub
}

// resolve marks the candidates [0, n) resolved and reports the progress.
func (s *sweeper) resolve(n int) {
	s.explored = n
	if s.obs.Progress != nil {
		s.obs.Progress(n, len(s.cands))
	}
}

// emit delivers the next confirmed front point to the observer.
func (s *sweeper) emit(point core.Solution) error {
	sp := SweepPoint{Solution: point, Index: s.emitted, Explored: s.explored, Total: len(s.cands)}
	s.emitted++
	return s.obs.Point(sp)
}

// runFront is the sweep of an exact instance: a source yields, in
// increasing-period order, the PeriodUnderLatency solve at each front
// latency — the prepared solver's front pass where it has one (pass), the
// walk over the two bounded solves otherwise (walk) — and the accumulator
// confirms each one as the next point.
func (s *sweeper) runFront(ctx context.Context, pool *preparedPool) error {
	next, err := s.pass(ctx, pool)
	if err != nil {
		return err
	}
	if next == nil {
		next = s.walk
	}
	for {
		sol, ok, err := next(ctx)
		if err != nil || !ok {
			return err
		}
		if point, ok := s.acc.Offer(sol, nil); ok {
			if err := s.emit(point); err != nil {
				return err
			}
		}
	}
}

// pointSource yields the PeriodUnderLatency solve at the next front
// latency of an exact sweep, or false once the front is complete.
type pointSource func(ctx context.Context) (core.Solution, bool, error)

// pass runs the prepared solver's front pass once, under one solve slot.
// The pass names every front latency, which resolves every candidate
// period at once; it returns them as a source whose solves run on the
// solver that ran the pass (a pipeline solver keeps the pass's per-state
// lists, so each is a walk over them, not a DP solve). A pass cut short
// has proven no point. pass returns a nil source, having run nothing,
// when the instance has no pool or its solver no front pass.
func (s *sweeper) pass(ctx context.Context, pool *preparedPool) (pointSource, error) {
	if pool == nil {
		return nil, nil
	}
	ps := pool.pool.Get().(*core.PreparedSolver)
	if ps == nil {
		return nil, nil
	}
	select {
	case s.e.sem <- struct{}{}:
	case <-ctx.Done():
		pool.pool.Put(ps)
		return nil, ctx.Err()
	}
	lats, ok, err := ps.Front(ctx)
	<-s.e.sem
	if !ok {
		pool.pool.Put(ps)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.resolve(len(s.cands))
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

// walk is the point source of an exact instance without a front pass.
// The first call solves MinPeriod; each later one takes the
// PeriodUnderLatency solve strictly below the last front latency, made
// with the last point. Its period, snapped to the first candidate not
// below it, gives the next front latency by a LatencyUnderPeriod solve at
// that candidate — the candidate solve of the serial sweep that accepts
// the point, since no smaller candidate reaches a latency under the last
// one. The candidates up to the snapped one are then resolved, and the
// point's solve and the next strictly-below solve, both bounded by that
// latency alone, run as one batch. The walk ends, every candidate
// resolved, when the strictly-below solve is infeasible, has no positive
// bound, or finds a period past the last candidate.
func (s *sweeper) walk(ctx context.Context) (core.Solution, bool, error) {
	// A solve can succeed under a dead context (a solve slot free, a
	// kernel that does not poll it), so a cancelled walk stops here,
	// before the next point's first solve.
	if err := ctx.Err(); err != nil {
		return core.Solution{}, false, err
	}
	below := s.below
	if s.explored == 0 {
		var err error
		if below, err = s.e.solveVia(ctx, s.pr, s.opts, s.via); err != nil { // MinPeriod
			return core.Solution{}, false, err
		}
	}
	j := s.explored
	if below.Feasible {
		j += sort.Search(len(s.cands)-j, func(i int) bool { return !numeric.Less(s.cands[j+i], below.Cost.Period) })
	}
	if !below.Feasible || j == len(s.cands) {
		s.resolve(len(s.cands))
		return core.Solution{}, false, nil
	}
	at, err := s.e.solveVia(ctx, s.bounded(core.LatencyUnderPeriod, s.cands[j]), s.opts, s.via)
	if err != nil {
		return core.Solution{}, false, err
	}
	s.resolve(j + 1)
	latency := at.Cost.Latency
	probs := []core.Problem{s.bounded(core.PeriodUnderLatency, latency)}
	// The kernels' tolerant <= accepts under this bound exactly the
	// latencies FrontAccumulator counts as a strict drop. A latency within
	// 2·Eps of zero has no positive bound below it: the walk ends there.
	if bound := latency - 2*numeric.Eps*math.Max(1, latency); bound > 0 {
		probs = append(probs, s.bounded(core.PeriodUnderLatency, bound))
	}
	sols, err := s.e.solveBatchVia(ctx, probs, s.opts, s.via)
	if err != nil {
		return core.Solution{}, false, err
	}
	s.below = core.Solution{} // infeasible
	if len(sols) == 2 {
		s.below = sols[1]
	}
	return sols[0], true, nil
}

// runScan is the sweep of instances without the monotonicity guarantee
// (heuristic solves) and of budget-bounded sweeps: solve the candidates
// in ascending batches of one worker round each, offering each round's
// solutions to the dominance accumulator in order. An accepted candidate
// is tightened by the PeriodUnderLatency solve at its latency.
func (s *sweeper) runScan(ctx context.Context) error {
	chunk := max(s.e.workers, 1)
	for s.explored < len(s.cands) {
		end := min(s.explored+chunk, len(s.cands))
		probs := make([]core.Problem, 0, end-s.explored)
		for _, c := range s.cands[s.explored:end] {
			probs = append(probs, s.bounded(core.LatencyUnderPeriod, c))
		}
		sols, err := s.e.solveBatchVia(ctx, probs, s.opts, s.via)
		if err != nil {
			return err
		}
		s.resolve(end)
		for _, sol := range sols {
			var tightenErr error
			point, ok := s.acc.Offer(sol, func(latency float64) (core.Solution, bool) {
				ts, err := s.e.solveVia(ctx, s.bounded(core.PeriodUnderLatency, latency), s.opts, s.via)
				tightenErr = err
				return ts, err == nil
			})
			// A tightening probe killed by the sweep's own context must
			// abort before emitting: falling back to the untightened
			// candidate would stream a point the uninterrupted sweep
			// would have tightened, breaking the guarantee that a
			// partial front is a prefix of the full one. Other probe
			// failures keep the legacy fallback.
			if tightenErr != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if ok {
				if err := s.emit(point); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
