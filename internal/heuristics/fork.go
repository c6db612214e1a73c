package heuristics

import (
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// HetForkLatencyLPT is a polynomial heuristic for the NP-hard problem of
// Theorem 12: minimize the latency of a heterogeneous fork on a
// Homogeneous platform.
//
// On p identical processors the latency of a no-data-parallelism mapping is
// w0/s + max(W_root, max_r W_r)/s (up to the root block's own offset), so
// minimizing it is the classic makespan problem over the leaf weights. The
// heuristic runs Longest-Processing-Time list scheduling of the leaves over
// the p processors, with the root joining the least-loaded block.
func HetForkLatencyLPT(f workflow.Fork, pl platform.Platform) (mapping.ForkMapping, mapping.Cost, error) {
	if err := f.Validate(); err != nil {
		return mapping.ForkMapping{}, mapping.Cost{}, err
	}
	if err := pl.Validate(); err != nil {
		return mapping.ForkMapping{}, mapping.Cost{}, err
	}
	p := pl.Processors()
	loads := make([]float64, p)
	members := make([][]int, p)
	for _, leaf := range sortByWeightDesc(f.Weights) {
		best := 0
		for u := 1; u < p; u++ {
			if loads[u] < loads[best] {
				best = u
			}
		}
		loads[best] += f.Weights[leaf]
		members[best] = append(members[best], leaf)
	}
	// The root goes to the least-loaded block: its leaves start at w0/s
	// like everyone else's, so any block works; the least-loaded one
	// balances (w0 + W_root) against the others.
	rootBlock := 0
	for u := 1; u < p; u++ {
		if loads[u] < loads[rootBlock] {
			rootBlock = u
		}
	}
	var m mapping.ForkMapping
	for u := 0; u < p; u++ {
		if u != rootBlock && len(members[u]) == 0 {
			continue
		}
		m.Blocks = append(m.Blocks,
			mapping.NewForkBlock(u == rootBlock, members[u], mapping.Replicated, u))
	}
	c := evalFork(f, pl, m)
	return m, c, nil
}
