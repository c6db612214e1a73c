package engine

import (
	"context"
	"errors"

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
	// Explored counts the candidate periods resolved (solved or pruned)
	// when the point was confirmed; a front pass resolves them all.
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
// dominance proves no smaller-period candidate can precede it, instead of
// after the whole sweep. The emitted sequence is identical to the slice
// ParetoFront returns — ParetoFront is a thin wrapper collecting it.
//
// On instances the dispatcher solves exactly and whose prepared solver
// has a front pass (core.PreparedSolver.Front: the exact pipeline, fork,
// fork-join and comm-pipeline cells), one pass proves the whole front,
// and each point is then the period-under-latency solve at its latency.
// On other exact instances (irreducible SP, comm-fork, the polynomial
// cells) the sweep prunes by monotonicity exactly like ParetoFront always
// has, but refines the candidate list smallest-periods-first so the
// resolved prefix (and with it the confirmed front) grows from the left
// while later candidates are still being solved. Heuristically solved and
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
		sols:  make([]core.Solution, len(cands)),
		state: make([]uint8, len(cands)),
		acc:   core.NewFrontAccumulator(),
	}
	// One prepared pool for the whole sweep (nil when the instance has no
	// prepared capability): every candidate solve and tightening probe of
	// the sweep differs only in Objective/Bound, so cache misses share the
	// pooled solvers' preprocessing and scratch across the entire sweep —
	// not just within one solve round. Repeated bounds are the cache's:
	// the pooled solvers keep no per-bound results.
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
		var fronted bool
		if fronted, runErr = s.runFront(ctx, pool); !fronted {
			runErr = s.runPruned(ctx)
		}
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

// Candidate resolution states of a sweep.
const (
	candUnsolved uint8 = iota
	candSolved
	candSkipped // pruned by monotonicity: the serial walk would discard it
)

// sweeper carries the state of one incremental sweep: the ascending
// candidate periods, their resolution state, and the emission walk — a
// prefix pointer plus the dominance accumulator — that confirms and
// delivers points as the resolved prefix grows.
type sweeper struct {
	e     *Engine
	pr    core.Problem // normalized: Objective == MinPeriod, validated
	opts  core.Options
	obs   SweepObserver
	cands []float64
	sols  []core.Solution
	state []uint8

	next     int           // first candidate not yet consumed by the emission walk
	via      coreSolveFunc // prepared-pool solve override (nil = SolveContext)
	acc      *core.FrontAccumulator
	explored int
	emitted  int // points actually delivered to the observer
}

// solveIdx solves the candidate subproblems at the given indices as one
// concurrent batch and marks them resolved.
func (s *sweeper) solveIdx(ctx context.Context, idxs []int) error {
	probs := make([]core.Problem, len(idxs))
	for j, i := range idxs {
		sub := s.pr
		sub.Objective = core.LatencyUnderPeriod
		sub.Bound = s.cands[i]
		probs[j] = sub
	}
	res, err := s.e.solveBatchVia(ctx, probs, s.opts, s.via)
	if err != nil {
		return err
	}
	for j, i := range idxs {
		s.sols[i] = res[j]
		if s.state[i] == candUnsolved {
			s.explored++
		}
		s.state[i] = candSolved
	}
	if s.obs.Progress != nil {
		s.obs.Progress(s.explored, len(s.cands))
	}
	return nil
}

// skipInterior marks the candidates strictly inside [lo, hi] as pruned.
func (s *sweeper) skipInterior(lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		if s.state[i] == candUnsolved {
			s.state[i] = candSkipped
			s.explored++
		}
	}
}

// drain advances the emission walk over the resolved prefix: every solved
// candidate is offered to the dominance accumulator and each confirmed
// point is delivered immediately. Confirmation is final because every
// smaller candidate is already resolved.
func (s *sweeper) drain(ctx context.Context) error {
	for s.next < len(s.cands) && s.state[s.next] != candUnsolved {
		if s.state[s.next] == candSolved {
			var tightenErr error
			point, ok := s.acc.Offer(s.sols[s.next], func(latency float64) (core.Solution, bool) {
				tight := s.pr
				tight.Objective = core.PeriodUnderLatency
				tight.Bound = latency
				ts, err := s.e.solveVia(ctx, tight, s.opts, s.via)
				if err != nil {
					tightenErr = err
					return core.Solution{}, false
				}
				return ts, true
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
		s.next++
	}
	return nil
}

// emit delivers the next confirmed front point to the observer.
func (s *sweeper) emit(point core.Solution) error {
	sp := SweepPoint{Solution: point, Index: s.emitted, Explored: s.explored, Total: len(s.cands)}
	s.emitted++
	return s.obs.Point(sp)
}

// runPruned is the exact-instance sweep: divide-and-conquer over the
// candidate periods using the monotonicity of feasibility and optimal
// latency in the period bound, refining smallest-period spans first so
// the resolved prefix — and with it the emitted front — grows from the
// left while larger candidates are still outstanding. Which candidates
// are solved versus pruned matches the level-order refinement ParetoFront
// historically used only up to ordering; the resulting front is identical
// either way, because pruned candidates are exactly those the serial
// dominance walk would discard.
func (s *sweeper) runPruned(ctx context.Context) error {
	n := len(s.cands)
	last := []int{0}
	if n > 1 {
		last = []int{0, n - 1}
	}
	if err := s.solveIdx(ctx, last); err != nil {
		return err
	}
	type span struct{ lo, hi int }
	// spans is kept sorted by lo; spans are contiguous and share
	// endpoints, so children of a popped prefix stay left of the rest.
	spans := []span{{0, n - 1}}
	for len(spans) > 0 {
		var mids []int
		var children []span
		i := 0
		for ; i < len(spans); i++ {
			sp := spans[i]
			if sp.hi-sp.lo <= 1 {
				continue
			}
			lo, hi := s.sols[sp.lo], s.sols[sp.hi]
			// Monotonicity (exact instances): a span bracketed by two
			// infeasible probes is all-infeasible, one bracketed by two
			// equal latencies is all-equal — either way the serial walk
			// would skip every interior candidate.
			if !lo.Feasible && !hi.Feasible {
				s.skipInterior(sp.lo, sp.hi)
				continue
			}
			if lo.Feasible && hi.Feasible && numeric.Eq(lo.Cost.Latency, hi.Cost.Latency) {
				s.skipInterior(sp.lo, sp.hi)
				continue
			}
			mid := (sp.lo + sp.hi) / 2
			mids = append(mids, mid)
			children = append(children, span{sp.lo, mid}, span{mid, sp.hi})
			if len(mids) >= s.e.workers {
				i++
				break
			}
		}
		rest := spans[i:]
		if len(mids) > 0 {
			if err := s.solveIdx(ctx, mids); err != nil {
				return err
			}
		} else if s.obs.Progress != nil && s.explored < len(s.cands) {
			s.obs.Progress(s.explored, len(s.cands))
		}
		spans = append(children, rest...)
		if err := s.drain(ctx); err != nil {
			return err
		}
	}
	return s.drain(ctx)
}

// runFront is the sweep of an exact instance whose prepared solver has a
// front pass: the pass, run once under one solve slot, names every front
// latency, which resolves every candidate period at once. Each point is
// then the PeriodUnderLatency solve at its latency — the solve runPruned's
// tightening probe makes for it — through the cache, on the solver that
// ran the pass (a pipeline solver keeps its front, so each is one DP
// solve). A pass cut
// short has proven no point. runFront reports false, having run and
// emitted nothing, when the instance has no pool (pool is nil) or its
// solver no front pass.
func (s *sweeper) runFront(ctx context.Context, pool *preparedPool) (bool, error) {
	if pool == nil {
		return false, nil
	}
	ps := pool.pool.Get().(*core.PreparedSolver)
	if ps == nil {
		return false, nil
	}
	select {
	case s.e.sem <- struct{}{}:
	case <-ctx.Done():
		pool.pool.Put(ps)
		return true, ctx.Err()
	}
	lats, ok, err := ps.Front(ctx)
	<-s.e.sem
	if !ok {
		pool.pool.Put(ps)
		return false, nil
	}
	if err != nil {
		return true, err
	}
	s.explored = len(s.cands)
	if s.obs.Progress != nil {
		s.obs.Progress(s.explored, len(s.cands))
	}
	via := func(ctx context.Context, pr core.Problem, opts core.Options) (core.Solution, error) {
		return solveOn(ctx, ps, pr, opts)
	}
	for _, latency := range lats {
		tight := s.pr
		tight.Objective = core.PeriodUnderLatency
		tight.Bound = latency
		sol, err := s.e.solveVia(ctx, tight, s.opts, via)
		if err != nil {
			return true, err
		}
		if point, ok := s.acc.Offer(sol, nil); ok {
			if err := s.emit(point); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// runScan is the fallback sweep for instances without the monotonicity
// guarantee (heuristic solves) and for budget-bounded sweeps: solve the
// candidates in ascending batches of one worker round each, draining the
// emission walk after every round.
func (s *sweeper) runScan(ctx context.Context) error {
	n := len(s.cands)
	chunk := s.e.workers
	if chunk < 1 {
		chunk = 1
	}
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		idxs := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idxs = append(idxs, i)
		}
		if err := s.solveIdx(ctx, idxs); err != nil {
			return err
		}
		if err := s.drain(ctx); err != nil {
			return err
		}
	}
	return nil
}
