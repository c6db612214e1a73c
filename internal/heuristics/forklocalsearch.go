package heuristics

import (
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// ForkObjective selects what LocalSearchFork minimizes.
type ForkObjective int

const (
	// ForkMinPeriod minimizes the period.
	ForkMinPeriod ForkObjective = iota
	// ForkMinLatency minimizes the latency.
	ForkMinLatency
)

func forkObjectiveValue(c mapping.Cost, o ForkObjective) float64 {
	if o == ForkMinPeriod {
		return c.Period
	}
	return c.Latency
}

// LocalSearchFork improves a valid fork mapping by hill climbing on the
// selected objective with four move kinds: moving a leaf between blocks,
// moving a processor between blocks, splitting a leaf out onto an idle
// processor, and merging two blocks. The returned mapping is always valid
// and never worse than the input.
func LocalSearchFork(f workflow.Fork, pl platform.Platform, m mapping.ForkMapping, obj ForkObjective) (mapping.ForkMapping, mapping.Cost, error) {
	cur, err := mapping.EvalFork(f, pl, m)
	if err != nil {
		return mapping.ForkMapping{}, mapping.Cost{}, err
	}
	best := m.Clone()
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, cand := range forkNeighbours(best, pl) {
			c, err := mapping.EvalFork(f, pl, cand)
			if err != nil {
				continue
			}
			if numeric.Less(forkObjectiveValue(c, obj), forkObjectiveValue(cur, obj)) {
				best, cur = cand, c
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best, cur, nil
}

// dropEmptyBlocks removes non-root blocks left without stages.
func dropEmptyBlocks(m mapping.ForkMapping) mapping.ForkMapping {
	out := mapping.ForkMapping{}
	for _, b := range m.Blocks {
		if !b.Root && len(b.Leaves) == 0 {
			continue
		}
		out.Blocks = append(out.Blocks, b)
	}
	return out
}

// forkNeighbours generates candidate moves; structurally invalid ones are
// filtered by the caller through EvalFork's validation.
func forkNeighbours(m mapping.ForkMapping, pl platform.Platform) []mapping.ForkMapping {
	var out []mapping.ForkMapping
	k := len(m.Blocks)

	// Move 1: move one leaf from block i to block j.
	for i := 0; i < k; i++ {
		for li := range m.Blocks[i].Leaves {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				c := m.Clone()
				leaf := c.Blocks[i].Leaves[li]
				c.Blocks[i].Leaves = append(c.Blocks[i].Leaves[:li], c.Blocks[i].Leaves[li+1:]...)
				c.Blocks[j].Leaves = append(c.Blocks[j].Leaves, leaf)
				out = append(out, dropEmptyBlocks(c))
			}
		}
	}

	// Move 2: move one processor from a multi-processor block to another.
	for i := 0; i < k; i++ {
		if len(m.Blocks[i].Procs) < 2 {
			continue
		}
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			c := m.Clone()
			moved := c.Blocks[i].Procs[len(c.Blocks[i].Procs)-1]
			c.Blocks[i].Procs = c.Blocks[i].Procs[:len(c.Blocks[i].Procs)-1]
			c.Blocks[j].Procs = append(c.Blocks[j].Procs, moved)
			out = append(out, c)
		}
	}

	// Move 3: split one leaf out onto the fastest idle processor.
	used := make(map[int]bool)
	for _, b := range m.Blocks {
		for _, q := range b.Procs {
			used[q] = true
		}
	}
	idle := -1
	for _, q := range speedsDescending(pl) {
		if !used[q] {
			idle = q
			break
		}
	}
	if idle >= 0 {
		for i := 0; i < k; i++ {
			for li := range m.Blocks[i].Leaves {
				c := m.Clone()
				leaf := c.Blocks[i].Leaves[li]
				c.Blocks[i].Leaves = append(c.Blocks[i].Leaves[:li], c.Blocks[i].Leaves[li+1:]...)
				c.Blocks = append(c.Blocks, mapping.NewForkBlock(false, []int{leaf}, mapping.Replicated, idle))
				out = append(out, dropEmptyBlocks(c))
			}
		}
	}

	// Move 4: merge block j into block i, pooling processors.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j || m.Blocks[j].Root {
				continue
			}
			c := m.Clone()
			c.Blocks[i].Leaves = append(c.Blocks[i].Leaves, c.Blocks[j].Leaves...)
			c.Blocks[i].Procs = append(c.Blocks[i].Procs, c.Blocks[j].Procs...)
			c.Blocks[i].Mode = mapping.Replicated
			c.Blocks = append(c.Blocks[:j], c.Blocks[j+1:]...)
			out = append(out, c)
		}
	}
	return out
}
