// Package heuristics provides polynomial-time heuristics for the NP-hard
// cells of Table 1 in Benoit & Robert (RR-6308), where no polynomial
// optimal algorithm can exist unless P = NP:
//
//   - heterogeneous pipeline, Heterogeneous platform, period, no
//     data-parallelism (Theorem 9): chains-to-chains partitioning matched
//     to the fastest processors, refined by greedy replication of the
//     bottleneck interval;
//   - pipeline on Heterogeneous platforms with data-parallelism
//     (Theorem 5): proportional processor-group allocation per stage;
//   - heterogeneous fork on Homogeneous platforms, latency (Theorem 12):
//     LPT list scheduling of the leaves;
//   - heterogeneous fork on Heterogeneous platforms, period (Theorem 15):
//     speed-aware greedy list scheduling, which is the fork-join greedy of
//     HetForkJoinGreedy run without a join, a fork being a fork-join
//     without one (Section 6.3).
//
// Each heuristic returns a valid mapping; the benchmark harness measures
// its gap against the exact exponential baselines of internal/exhaustive.
package heuristics

import (
	"fmt"
	"sort"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func evalPipe(p workflow.Pipeline, pl platform.Platform, m mapping.PipelineMapping) mapping.Cost {
	c, err := mapping.EvalPipeline(p, pl, m)
	if err != nil {
		panic(fmt.Sprintf("heuristics: constructed invalid pipeline mapping %v: %v", m, err))
	}
	return c
}

func evalFork(f workflow.Fork, pl platform.Platform, m mapping.ForkMapping) mapping.Cost {
	c, err := mapping.EvalFork(f, pl, m)
	if err != nil {
		panic(fmt.Sprintf("heuristics: constructed invalid fork mapping %v: %v", m, err))
	}
	return c
}

// speedsDescending returns processor indices sorted by non-increasing
// speed (ties by index).
func speedsDescending(pl platform.Platform) []int {
	idx := pl.SortedBySpeed()
	out := make([]int, len(idx))
	for i, v := range idx {
		out[len(idx)-1-i] = v
	}
	return out
}

// sortByWeightDesc returns item indices sorted by non-increasing weight.
func sortByWeightDesc(weights []float64) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	return idx
}
