package core

import (
	"context"
	"time"

	"repliflow/internal/numeric"
)

// BatchSolver solves a slice of subproblems under shared options, returning
// solutions aligned by index; a positive AnytimeBudget is the wall-clock
// target of the whole batch. The Pareto walk is parameterized over it so
// a concurrent engine can be injected without core depending on one: the
// serial default solves the slice in order with SolveContext.
type BatchSolver func(ctx context.Context, problems []Problem, opts Options) ([]Solution, error)

// serialBatch is the default BatchSolver: one SolveContext call per
// subproblem, in order, each with an equal part of a positive budget
// (at least 1 ms).
func serialBatch(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
	if opts.AnytimeBudget > 0 {
		opts.AnytimeBudget = max(opts.AnytimeBudget/time.Duration(len(problems)), time.Millisecond)
	}
	out := make([]Solution, len(problems))
	for i, pr := range problems {
		sol, err := SolveContext(ctx, pr, opts)
		if err != nil {
			return nil, err
		}
		out[i] = sol
	}
	return out, nil
}

// ParetoFront computes the period/latency trade-off curve of a problem
// instance: the set of non-dominated (period, latency) pairs, each with a
// mapping achieving it, ordered by increasing period. The Objective and
// Bound fields of the problem are ignored.
//
// It is the Walk, run serially: on instances the dispatcher solves
// exactly each point is the least period under its front latency and
// the front is exact; points obtained through heuristics are upper
// bounds (Solution.Exact == false).
func ParetoFront(pr Problem, opts Options) ([]Solution, error) {
	return ParetoFrontWith(context.Background(), pr, opts, nil)
}

// ParetoFrontWith is ParetoFront with an explicit context and a pluggable
// batch solver for the walk's bounded solves (nil = serial). Any correct
// BatchSolver — serial, concurrent, cached — produces the identical
// front, since the walk asks it the same problems in the same order. A
// walk cut short by the context returns ctx.Err() and no front.
func ParetoFrontWith(ctx context.Context, pr Problem, opts Options, batch BatchSolver) ([]Solution, error) {
	pr, err := NormalizeSweep(pr)
	if err != nil {
		return nil, err
	}
	w := NewWalk(pr, opts.Normalized(), batch)
	var acc FrontAccumulator
	var front []Solution
	for {
		sol, ok, err := w.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return front, nil
		}
		if point, ok := acc.Offer(sol); ok {
			front = append(front, point)
		}
	}
}

// NormalizeSweep canonicalizes an instance for a Pareto sweep: the
// Objective and Bound fields are overridden (the sweep ignores them) and
// the instance is validated. Every sweep entry point — the serial
// ParetoFrontWith and the incremental engine generator — goes through it,
// so they agree byte-for-byte on which instance they are sweeping.
func NormalizeSweep(pr Problem) (Problem, error) {
	if pr.Objective.Bounded() && pr.Bound <= 0 {
		pr.Bound = 1 // neutralize validation; the objective is overridden below
	}
	pr.Objective = MinPeriod
	if err := pr.Validate(); err != nil {
		return Problem{}, err
	}
	return pr, nil
}

// Walk finds a Pareto front one point at a time by alternating the
// paper's two bounded problems. It starts from the least period (a
// MinPeriod solve). Each step then takes the least latency within the
// period it holds (LatencyUnderPeriod), the least period within that
// latency (PeriodUnderLatency: the step's point), and the least period
// strictly below that latency, whose solve the next step starts from.
// The point's solve and the strictly-below solve depend on the latency
// alone, so they go to the batch solver together. The walk ends when
// the strictly-below solve is infeasible, or when no positive bound
// lies strictly below the latency.
//
// Exact solves make each point the front point at its latency, so the
// points come in increasing-period order. A heuristic bounded solve may
// come back infeasible or worse than the solve the step holds; the step
// then keeps what it holds, and FrontAccumulator drops a point that
// breaks the front's order. An inexact infeasible verdict below a
// latency does not prove the front complete: the first one makes the
// walk solve MinLatency, and hold that solve when its latency is lower.
//
// A positive Options.AnytimeBudget is a target for the whole walk:
// each call of the batch solver is given half of what the earlier calls
// left of it, and never less than 1 ms.
//
// The zero value is not usable; construct with NewWalk. A Walk is not
// safe for concurrent use.
type Walk struct {
	pr         Problem // normalized: Objective == MinPeriod, validated
	opts       Options
	batch      BatchSolver
	left       time.Duration // what the batches so far left of a positive budget
	started    bool
	below      Solution // the solve strictly below the last point's latency
	minLatency bool     // the walk has solved MinLatency
}

// NewWalk returns a walk over the normalized instance pr (see
// NormalizeSweep) under normalized opts; a nil batch solves serially.
func NewWalk(pr Problem, opts Options, batch BatchSolver) *Walk {
	if batch == nil {
		batch = serialBatch
	}
	return &Walk{pr: pr, opts: opts, batch: batch, left: opts.AnytimeBudget}
}

// Done reports whether the walk knows it has no further point: the next
// Next returns false without solving.
func (w *Walk) Done() bool { return w.started && !w.below.Feasible }

// Next takes the walk's next step and returns its point, the
// PeriodUnderLatency solve at the next front latency, or false once the
// walk has ended. A cancelled context stops the walk before the step's
// first solve.
func (w *Walk) Next(ctx context.Context) (Solution, bool, error) {
	// A solve can succeed under a dead context (a solve slot free, a
	// kernel that does not poll it), so a cancelled walk stops here.
	if err := ctx.Err(); err != nil {
		return Solution{}, false, err
	}
	if !w.started {
		sols, err := w.solve(ctx, w.pr)
		if err != nil {
			return Solution{}, false, err
		}
		w.started, w.below = true, sols[0]
	}
	held := w.below
	if !held.Feasible {
		return Solution{}, false, nil
	}
	at, err := w.solve(ctx, w.bounded(LatencyUnderPeriod, held.Cost.Period))
	if err != nil {
		return Solution{}, false, err
	}
	held = keep(held, at[0])
	latency := held.Cost.Latency
	probs := []Problem{w.bounded(PeriodUnderLatency, latency)}
	// The kernels' tolerant <= accepts under this bound exactly the
	// latencies FrontAccumulator counts as a strict drop. A latency that
	// underflowed to zero has no positive bound below it: the walk ends
	// there.
	if bound := latency * (1 - 2*numeric.Eps); bound > 0 {
		probs = append(probs, w.bounded(PeriodUnderLatency, bound))
	}
	sols, err := w.solve(ctx, probs...)
	if err != nil {
		return Solution{}, false, err
	}
	point := keep(held, sols[0])
	w.below = Solution{} // infeasible
	if len(sols) == 2 {
		w.below = sols[1]
		if !w.below.Feasible && !w.below.Exact && !w.minLatency {
			w.minLatency = true
			sols, err := w.solve(ctx, w.bounded(MinLatency, 0))
			if err != nil {
				return Solution{}, false, err
			}
			if sols[0].Feasible && numeric.Less(sols[0].Cost.Latency, point.Cost.Latency) {
				w.below = sols[0]
			}
		}
	}
	return point, true, nil
}

// keep returns sol when it is feasible and weakly dominates held, and
// held otherwise. An exact bounded solve through a point the walk holds
// always weakly dominates it.
func keep(held, sol Solution) Solution {
	if sol.Feasible && numeric.LessEq(sol.Cost.Period, held.Cost.Period) && numeric.LessEq(sol.Cost.Latency, held.Cost.Latency) {
		return sol
	}
	return held
}

// bounded returns the instance under a bounded objective.
func (w *Walk) bounded(obj Objective, bound float64) Problem {
	sub := w.pr
	sub.Objective = obj
	sub.Bound = bound
	return sub
}

// solve hands problems to the batch solver, with the walk's share of a
// positive budget.
func (w *Walk) solve(ctx context.Context, problems ...Problem) ([]Solution, error) {
	opts := w.opts
	if opts.AnytimeBudget > 0 {
		opts.AnytimeBudget = max(w.left/2, time.Millisecond)
		w.left = max(w.left-opts.AnytimeBudget, 0)
	}
	return w.batch(ctx, problems, opts)
}

// FrontAccumulator confirms the points of a Pareto sweep, offered in the
// order the sweep finds them, and is the one place the front invariant
// is enforced: an offer joins the front only when it is feasible and
// both its period is strictly larger and its latency strictly smaller
// than the last confirmed point's. Confirmation is final, which is what
// lets a sweep deliver each point as soon as it is found instead of
// buffering the whole front.
//
// The zero value is ready for the first point. The accumulator is not
// safe for concurrent use: offers are inherently ordered.
type FrontAccumulator struct {
	last Solution // the last confirmed point; infeasible before the first
}

// Offer runs the front invariant on the next solution of the sweep,
// returning it and true when it joins the front.
func (a *FrontAccumulator) Offer(sol Solution) (Solution, bool) {
	if !sol.Feasible || a.last.Feasible &&
		(numeric.LessEq(sol.Cost.Period, a.last.Cost.Period) || numeric.GreaterEq(sol.Cost.Latency, a.last.Cost.Latency)) {
		return Solution{}, false
	}
	a.last = sol
	return sol, true
}

// FrontIsMonotone reports whether a front is strictly decreasing in
// latency and strictly increasing in period — the defining property of a
// Pareto front (exported for tests and tooling).
func FrontIsMonotone(front []Solution) bool {
	for i := 1; i < len(front); i++ {
		if !numeric.Less(front[i-1].Cost.Period, front[i].Cost.Period) {
			return false
		}
		if !numeric.Greater(front[i-1].Cost.Latency, front[i].Cost.Latency) {
			return false
		}
	}
	return true
}
