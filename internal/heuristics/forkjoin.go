package heuristics

import (
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// HetForkJoinGreedy is a polynomial heuristic for the NP-hard fork-join
// cells, and with join false for the fork cells (Theorem 15), a fork
// being a fork-join without a join. It list-schedules the stages onto one
// block per processor with speed-aware load balancing — the root on the
// processor minimizing its completion, each leaf (heaviest first)
// likewise — and places the join stage with the root's block or on the
// processor whose load with it over its speed is least, whichever
// evaluates better. Full replication is also tried; the best mapping by
// the selected objective is returned, ties going to the earlier
// candidate. Without a join only the root's placement is tried, no block
// sets the Join flag, and costs are the fork's, by EvalFork.
func HetForkJoinGreedy(fj workflow.ForkJoin, join bool, pl platform.Platform, minimizePeriod bool) (mapping.ForkJoinMapping, mapping.Cost, error) {
	err := workflow.Fork{Root: fj.Root, Weights: fj.Weights}.Validate()
	if join {
		err = fj.Validate()
	}
	if err != nil {
		return mapping.ForkJoinMapping{}, mapping.Cost{}, err
	}
	if err := pl.Validate(); err != nil {
		return mapping.ForkJoinMapping{}, mapping.Cost{}, err
	}
	p := pl.Processors()
	obj := func(c mapping.Cost) float64 {
		if minimizePeriod {
			return c.Period
		}
		return c.Latency
	}

	loads := make([]float64, p)
	members := make([][]int, p)
	place := func(weight float64) int {
		best := -1
		var bestRatio float64
		for u := 0; u < p; u++ {
			ratio := (loads[u] + weight) / pl.Speeds[u]
			if best < 0 || ratio < bestRatio {
				best, bestRatio = u, ratio
			}
		}
		loads[best] += weight
		return best
	}
	rootProc := place(fj.Root)
	for _, leaf := range sortByWeightDesc(fj.Weights) {
		u := place(fj.Weights[leaf])
		members[u] = append(members[u], leaf)
	}

	// Candidate join placements: with the root, or on the processor whose
	// join-inclusive load/speed ratio is smallest. Kept as an ordered
	// slice: tie-valued candidates must be tried in a deterministic order
	// or the returned mapping varies from run to run.
	joinCandidates := []int{rootProc}
	if join {
		bestU, bestRatio := -1, 0.0
		for u := 0; u < p; u++ {
			ratio := (loads[u] + fj.Join) / pl.Speeds[u]
			if bestU < 0 || ratio < bestRatio {
				bestU, bestRatio = u, ratio
			}
		}
		if bestU != rootProc {
			joinCandidates = append(joinCandidates, bestU)
		}
	}

	build := func(joinProc int) mapping.ForkJoinMapping {
		var m mapping.ForkJoinMapping
		for u := 0; u < p; u++ {
			isRoot := u == rootProc
			isJoin := u == joinProc
			if !isRoot && !isJoin && len(members[u]) == 0 {
				continue
			}
			m.Blocks = append(m.Blocks,
				mapping.NewForkJoinBlock(isRoot, isJoin && join, members[u], mapping.Replicated, u))
		}
		return m
	}

	var best mapping.ForkJoinMapping
	var bestCost mapping.Cost
	bestVal := numeric.Inf
	consider := func(m mapping.ForkJoinMapping) {
		c, err := mapping.EvalForkGraph(fj, join, pl, m)
		if err != nil {
			return
		}
		if numeric.Less(obj(c), bestVal) {
			best, bestCost, bestVal = m, c, obj(c)
		}
	}
	for _, jp := range joinCandidates {
		consider(build(jp))
	}
	all := mapping.ReplicateAllForkJoin(fj, pl)
	all.Blocks[0].Join = join
	consider(all)

	if best.Blocks == nil {
		panic("heuristics: fork-join greedy produced no valid mapping")
	}
	return best, bestCost, nil
}
