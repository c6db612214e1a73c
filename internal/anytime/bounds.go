package anytime

import (
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Spec states the optimization target of a portfolio run in cost terms:
// which criterion is minimized, which bounds constrain feasibility, and
// whether data-parallel groups are allowed. It is the kind-independent
// projection of a core.Problem's objective.
type Spec struct {
	// MinimizePeriod selects the optimized criterion: the period when
	// true, the latency otherwise.
	MinimizePeriod bool
	// PeriodBound, when > 0, restricts feasible mappings to those with
	// period <= PeriodBound (the latency-under-period objectives).
	PeriodBound float64
	// LatencyBound, when > 0, restricts feasible mappings to those with
	// latency <= LatencyBound (the period-under-latency objectives).
	LatencyBound float64
	// AllowDP permits data-parallel groups.
	AllowDP bool
}

// Objective returns the optimized criterion of a cost.
func (s Spec) Objective(c mapping.Cost) float64 {
	if s.MinimizePeriod {
		return c.Period
	}
	return c.Latency
}

// Feasible reports whether a cost honours the spec's bounds.
func (s Spec) Feasible(c mapping.Cost) bool {
	if s.PeriodBound > 0 && numeric.Greater(c.Period, s.PeriodBound) {
		return false
	}
	if s.LatencyBound > 0 && numeric.Greater(c.Latency, s.LatencyBound) {
		return false
	}
	return true
}

// PeriodLB is the sum-of-work period bound: a set of groups of total
// weight work, mapped onto disjoint processor sets whose speeds sum to
// at most speedSum, has max-group-period >= work/speedSum — a
// replicated group's capacity k·min(s) and a data-parallel group's
// capacity Σs are both at most the group's speed sum, and the group
// speed sums are disjoint slices of speedSum.
func PeriodLB(work, speedSum float64) float64 {
	return work / speedSum
}

// LatencyLB is the serial-chain latency bound: work units that must be
// traversed sequentially take at least work/maxSpeed time units without
// data-parallelism (a replicated group's delay is weight/min(s) >=
// weight/maxSpeed) and at least work/speedSum with it (a data-parallel
// group's delay is weight/Σs >= work-share/speedSum).
func LatencyLB(work, speedSum, maxSpeed float64, allowDP bool) float64 {
	if allowDP {
		return work / speedSum
	}
	return work / maxSpeed
}

// PipelineLB returns a lower bound on the spec's optimized criterion
// over all valid mappings of the pipeline: sum-of-work for the period,
// full-traversal (every stage is on the single data path) for the
// latency. The bound holds for the bounded-objective variants too —
// a feasibility constraint only shrinks the mapping set.
func PipelineLB(p workflow.Pipeline, pl platform.Platform, spec Spec) float64 {
	if spec.MinimizePeriod {
		return PeriodLB(p.TotalWork(), pl.TotalSpeed())
	}
	return LatencyLB(p.TotalWork(), pl.TotalSpeed(), pl.MaxSpeed(), spec.AllowDP)
}

// heaviest returns the largest weight, or 0 for a leafless graph.
func heaviest(weights []float64) float64 {
	if len(weights) == 0 {
		return 0
	}
	return numeric.MaxFloat(weights)
}

// ForkJoinLB returns a lower bound on the spec's optimized criterion
// over all valid mappings of the fork-join: sum-of-work for the
// period, critical-path (root, heaviest leaf, join) for the latency.
// A fork's bound is that of the fork-join without a join (Join 0): the
// join adds 0 to each sum, so the bound is the fork's own.
func ForkJoinLB(fj workflow.ForkJoin, pl platform.Platform, spec Spec) float64 {
	if spec.MinimizePeriod {
		return PeriodLB(fj.TotalWork(), pl.TotalSpeed())
	}
	return LatencyLB(fj.Root+heaviest(fj.Weights)+fj.Join, pl.TotalSpeed(), pl.MaxSpeed(), spec.AllowDP)
}
