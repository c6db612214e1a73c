package core

import (
	"context"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
)

// BatchSolver solves a slice of subproblems under shared options, returning
// solutions aligned by index. The Pareto sweep is parameterized over it so
// a concurrent engine can be injected without core depending on one: the
// serial default solves the slice in order with SolveContext.
type BatchSolver func(ctx context.Context, problems []Problem, opts Options) ([]Solution, error)

// serialBatch is the default BatchSolver: one SolveContext call per
// subproblem, in order.
func serialBatch(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
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
// The sweep runs over the finite set of achievable block-period values, so
// on instances the dispatcher solves exactly the front is exact; points
// obtained through heuristics are upper bounds (Solution.Exact == false).
func ParetoFront(pr Problem, opts Options) ([]Solution, error) {
	return ParetoFrontWith(context.Background(), pr, opts, nil)
}

// ParetoFrontWith is ParetoFront with an explicit context and a pluggable
// batch solver for the candidate-period subproblems (nil = serial). The
// front is a pure function of the instance: any correct BatchSolver —
// serial, concurrent, cached — produces identical output, because the
// candidate subproblems are independent and the dominance filtering below
// is deterministic.
func ParetoFrontWith(ctx context.Context, pr Problem, opts Options, batch BatchSolver) ([]Solution, error) {
	if batch == nil {
		batch = serialBatch
	}
	pr, err := NormalizeSweep(pr)
	if err != nil {
		return nil, err
	}
	opts = opts.Normalized()

	// Solve every candidate-period subproblem up front: they are mutually
	// independent, so a concurrent batch solver can fan them out.
	cands := CandidatePeriods(pr)
	subs := make([]Problem, len(cands))
	for i, k := range cands {
		sub := pr
		sub.Objective = LatencyUnderPeriod
		sub.Bound = k
		subs[i] = sub
	}
	sols, err := batch(ctx, subs, opts)
	if err != nil {
		return nil, err
	}

	// Dominance filtering is a serial walk over the ascending candidates;
	// only the few accepted points pay a tightening solve.
	acc := NewFrontAccumulator()
	var tightenErr error
	tighten := func(latency float64) (Solution, bool) {
		tight := pr
		tight.Objective = PeriodUnderLatency
		tight.Bound = latency
		tsols, err := batch(ctx, []Problem{tight}, opts)
		if err != nil {
			tightenErr = err
			return Solution{}, false
		}
		return tsols[0], true
	}
	var front []Solution
	for _, sol := range sols {
		point, ok := acc.Offer(sol, tighten)
		// A tightening probe killed by the sweep's own context fails the
		// sweep, as the engine's does: the untightened candidate is not
		// the point an uninterrupted sweep returns. Other probe failures
		// keep the untightened fallback.
		if tightenErr != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if ok {
			front = append(front, point)
		}
	}
	return front, nil
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

// FrontAccumulator is the incremental dominance walk of the Pareto sweep:
// candidate solutions are offered in ascending candidate-period order, and
// each offer is either discarded (infeasible, or dominated by an already
// accepted point) or confirmed as the next front point. Confirmation is
// final — later candidates have larger periods, so they can only extend
// the front, never displace an accepted point. This is what lets a sweep
// deliver points as soon as the prefix of smaller candidates is resolved,
// instead of buffering the whole front.
//
// The zero value is not usable; construct with NewFrontAccumulator. The
// accumulator is not safe for concurrent use: offers are inherently
// ordered.
type FrontAccumulator struct {
	prevLatency float64
}

// NewFrontAccumulator returns an accumulator ready for the first
// (smallest-period) candidate.
func NewFrontAccumulator() *FrontAccumulator {
	return &FrontAccumulator{prevLatency: numeric.Inf}
}

// Offer runs the dominance filter on the next candidate solution in
// ascending-period order. When the candidate joins the front, the
// confirmed point (possibly period-tightened) and true are returned;
// otherwise the candidate is discarded. tighten, when non-nil, re-solves
// the period at the accepted latency level (the PeriodUnderLatency probe
// of the serial walk); its result replaces the candidate only when it is
// feasible and dominates it, so a failing or worse tightening solve never
// degrades the front.
func (a *FrontAccumulator) Offer(sol Solution, tighten func(latency float64) (Solution, bool)) (Solution, bool) {
	if !sol.Feasible || numeric.GreaterEq(sol.Cost.Latency, a.prevLatency) {
		return Solution{}, false
	}
	if tighten != nil {
		if ts, ok := tighten(sol.Cost.Latency); ok && ts.Feasible &&
			numeric.LessEq(ts.Cost.Latency, sol.Cost.Latency) && numeric.LessEq(ts.Cost.Period, sol.Cost.Period) {
			sol = ts
		}
	}
	a.prevLatency = sol.Cost.Latency
	return sol, true
}

// CandidatePeriods returns a superset of the achievable block-period
// values of the instance, ascending and deduplicated, delegated to the
// kind's capability. For homogeneous graphs a closed form keeps the set
// polynomial; otherwise block weights are enumerated over stage subsets
// (fine at exhaustive-search sizes). The optimal period of any mapping is
// one of these values, which is what makes the ParetoFront sweep exact on
// exactly-solved cells. Kinds without the capability return nil (their
// sweep degenerates to the empty front).
func CandidatePeriods(pr Problem) []float64 {
	spec := specOf(pr)
	if spec == nil || spec.CandidatePeriods == nil {
		return nil
	}
	return spec.CandidatePeriods(pr)
}

// pipelineCandidatePeriods is the CandidatePeriods capability of the
// legacy pipeline kind: every contiguous interval weight.
func pipelineCandidatePeriods(pr Problem) []float64 {
	p := *pr.Pipeline
	var weights []float64
	for i := 0; i < p.Stages(); i++ {
		w := 0.0
		for j := i; j < p.Stages(); j++ {
			w += p.Weights[j]
			weights = append(weights, w)
		}
	}
	return periodsFromWeights(weights, pr.Platform)
}

// forkCandidatePeriods is the CandidatePeriods capability of the legacy
// fork kind.
func forkCandidatePeriods(pr Problem) []float64 {
	return periodsFromWeights(forkBlockWeights(pr.Fork.Root, 0, false, pr.Fork.Weights), pr.Platform)
}

// forkJoinCandidatePeriods is the CandidatePeriods capability of the
// legacy fork-join kind.
func forkJoinCandidatePeriods(pr Problem) []float64 {
	return periodsFromWeights(forkBlockWeights(pr.ForkJoin.Root, pr.ForkJoin.Join, true, pr.ForkJoin.Weights), pr.Platform)
}

// forkBlockWeights lists the total weights a fork (or fork-join) block can
// take: any subset sum of the leaves, optionally plus the root and/or join
// weight. Homogeneous leaves collapse subsets to counts; heterogeneous
// leaves enumerate subsets (2^n).
func forkBlockWeights(root, join float64, hasJoin bool, leaves []float64) []float64 {
	var sums []float64
	hom := true
	for _, w := range leaves[min(1, len(leaves)):] {
		if !numeric.Eq(w, leaves[0]) {
			hom = false
			break
		}
	}
	if hom {
		s := 0.0
		sums = append(sums, 0)
		for range leaves {
			if len(leaves) > 0 {
				s += leaves[0]
			}
			sums = append(sums, s)
		}
	} else {
		sums = append(sums, 0)
		for _, w := range leaves {
			for _, s := range append([]float64(nil), sums...) {
				sums = append(sums, s+w)
			}
		}
		sums = numeric.DedupSorted(sums)
	}
	var weights []float64
	for _, s := range sums {
		if s > 0 {
			weights = append(weights, s)
		}
		weights = append(weights, s+root)
		if hasJoin {
			if s > 0 {
				weights = append(weights, s+join)
			}
			weights = append(weights, s+root+join)
		}
	}
	return weights
}

// periodsFromWeights expands block weights into period values over every
// replication count and minimum speed (and speed sums for data-parallel
// groups), deduplicated and ascending.
func periodsFromWeights(weights []float64, pl platform.Platform) []float64 {
	speeds := numeric.DedupSorted(append([]float64(nil), pl.Speeds...))
	p := pl.Processors()
	var cands []float64
	for _, w := range weights {
		for _, s := range speeds {
			for k := 1; k <= p; k++ {
				cands = append(cands, w/(float64(k)*s))
			}
		}
	}
	// Data-parallel groups divide by speed sums; enumerate sums of sorted
	// prefixes and, when small, all subset sums.
	sums := subsetSpeedSums(pl)
	for _, w := range weights {
		for _, s := range sums {
			cands = append(cands, w/s)
		}
	}
	return numeric.DedupSorted(cands)
}

// subsetSpeedSums returns the distinct subset speed sums when 2^p is small
// and the prefix sums of the speed-sorted processors otherwise (a superset
// is not required for correctness of the sweep — extra candidates only add
// work, missing ones only coarsen the front between exact points).
func subsetSpeedSums(pl platform.Platform) []float64 {
	p := pl.Processors()
	if p <= 12 {
		sums := []float64{}
		acc := []float64{0}
		for _, s := range pl.Speeds {
			for _, a := range append([]float64(nil), acc...) {
				acc = append(acc, a+s)
			}
			acc = numeric.DedupSorted(acc)
		}
		for _, a := range acc {
			if a > 0 {
				sums = append(sums, a)
			}
		}
		return sums
	}
	var sums []float64
	total := 0.0
	for _, idx := range pl.SortedBySpeed() {
		total += pl.Speeds[idx]
		sums = append(sums, total)
	}
	return numeric.DedupSorted(sums)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
