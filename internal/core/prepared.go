package core

import "context"

// PreparedSolver solves repeated objective/bound variants of one
// (workflow, platform, model) triple — the shape of every Pareto sweep
// and bi-criteria probe sequence. Construct with Prepare. Objectives
// whose dispatch cell advertises the prepared capability run on a shared
// prepared exhaustive solver (its own platform table, epoch-reset DP
// scratch); every other objective falls back to SolveContext, so Solve
// is total over the four objectives either way. It keeps no per-bound
// results: every Solve runs its search, and repeated bounds are answered
// by the engine's result cache.
//
// Results are byte-identical to SolveContext on the same problem: a
// caching engine may freely mix prepared and unprepared solves of the
// same instance.
//
// A PreparedSolver is NOT safe for concurrent use — pool instances (one
// per worker) instead of locking.
type PreparedSolver struct {
	base Problem
	opts Options
	fns  [4]PreparedSolve // indexed by Objective
	// setPar retunes the shared prepared solver's worker count (nil when
	// the cell has no parallel path); see SetParallelism.
	setPar func(workers int)
	// front is the shared cell's front pass when PeriodUnderLatency runs
	// on that cell (nil otherwise); see Front.
	front func(ctx context.Context) ([]float64, error)
}

// preparableObjectives is every objective a PreparedSolver dispatches.
var preparableObjectives = [...]Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}

// Prepare returns a prepared solver for the instance under opts, or
// (nil, false) when preparation does not apply: the instance is invalid,
// a positive AnytimeBudget routes solves to the portfolio (whose results
// are time-dependent, so sharing state across solves would change them),
// or no cell of the instance prepares it. Polynomial legacy cells gain
// nothing from preparation and have no Prepare; NP-hard cells
// prepare their exhaustive path and, where a cached heuristic candidate
// set pays for itself — SP and the communication-aware kinds — their
// oversized path too. The Objective and Bound of pr are ignored — Solve
// supplies them per call.
func Prepare(pr Problem, opts Options) (*PreparedSolver, bool) {
	opts = opts.Normalized()
	if opts.AnytimeBudget > 0 {
		return nil, false
	}
	sub := pr
	sub.Objective = MinPeriod
	sub.Bound = 0
	if err := sub.Validate(); err != nil {
		return nil, false
	}
	ps := &PreparedSolver{base: sub, opts: opts}
	// All hard cells of one graph kind have the same Prepare
	// implementation, so the first successful preparation is shared by
	// every objective whose cell has the capability.
	spec := specOf(sub)
	key := keyOf(spec, sub)
	var shared *PreparedCell
	n := 0
	for _, obj := range preparableObjectives {
		key.Objective = obj
		prepare := spec.Classify(key).prepare
		if prepare == nil {
			continue
		}
		if shared == nil {
			sub.Objective = obj
			if shared = prepare(sub, opts); shared == nil {
				return nil, false // nothing to share, e.g. past the exhaustive limits
			}
		}
		ps.fns[obj] = shared.Solve
		n++
	}
	if n == 0 {
		return nil, false
	}
	ps.setPar = shared.SetParallelism
	if ps.fns[PeriodUnderLatency] != nil {
		ps.front = shared.Front
	}
	ps.SetParallelism(opts.Parallelism)
	return ps, true
}

// HasFront reports whether the instance's PeriodUnderLatency cell has a
// front pass (see Front): the exact pipeline, fork, fork-join and
// comm-pipeline cells have one, irreducible SP and comm-fork do not.
func (ps *PreparedSolver) HasFront() bool { return ps.front != nil }

// Front returns the latencies of the instance's exact Pareto front in
// order of increasing period: Solve(ctx, PeriodUnderLatency, L) at each
// of them is the front's point at L. Without a front pass (HasFront
// false) it returns nil, having run nothing. The pipeline pass runs once
// per prepared solver, the scans' on every call; a pass cut short
// returns ctx's error.
//
// After the pass, a point's solve costs far less than a solve without
// it: on a pipeline it walks the pass's per-state lists, with no DP
// solve; on a fork, fork-join or comm-pipeline its scan starts from the
// optimum the pass proved, cuts every mapping strictly worse and stops
// at the first mapping that reaches it.
//
// A panic in the pass returns as an error (Recovered), so a caller
// holding a solve slot around the pass releases it as after any other
// error.
func (ps *PreparedSolver) Front(ctx context.Context) (latencies []float64, err error) {
	if ps.front == nil {
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			latencies, err = nil, Recovered(r)
		}
	}()
	return ps.front(ctx)
}

// SetParallelism retunes the per-solve search parallelism of subsequent
// Solve calls, using the Options.Parallelism encoding (0/1 serial, n > 1
// explicit workers, negative auto). Results are byte-identical at every
// setting, so engines may retune between solves — donating idle pool
// workers to one solve, withdrawing them for the next — on the same
// prepared scratch.
func (ps *PreparedSolver) SetParallelism(par int) {
	if ps.setPar == nil {
		return
	}
	ps.opts.Parallelism = par
	ps.setPar(searchParallelism(ps.opts, ps.base))
}

// Solve solves the prepared instance under the given objective and bound
// (bound is ignored by unbounded objectives), byte-identical to
// SolveContext on the same problem — including validation: an invalid
// bound fails with ErrKindInvalidInstance on either path.
func (ps *PreparedSolver) Solve(ctx context.Context, obj Objective, bound float64) (Solution, error) {
	pr := ps.base
	pr.Objective = obj
	pr.Bound = bound
	if int(obj) >= 0 && int(obj) < len(ps.fns) {
		if fn := ps.fns[obj]; fn != nil {
			// The base instance was validated at Prepare time; only the
			// per-call fields can introduce invalidity here. Mirror
			// SolveContext exactly rather than running the fast path on
			// an instance it would reject.
			if obj.Bounded() && bound <= 0 {
				return Solution{}, pr.Validate()
			}
			if err := ctx.Err(); err != nil {
				return Solution{}, err
			}
			return fn(ctx, pr)
		}
	}
	return SolveContext(ctx, pr, ps.opts)
}

// SolveProblem dispatches a fully formed problem through the prepared
// solver. The problem must be the prepared instance up to Objective and
// Bound; that invariant is the caller's (the engine checks it when
// pooling prepared solvers across a batch).
func (ps *PreparedSolver) SolveProblem(ctx context.Context, pr Problem) (Solution, error) {
	return ps.Solve(ctx, pr.Objective, pr.Bound)
}
