package heuristics

import (
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// LocalSearchPipelinePeriod improves a valid pipeline mapping by hill
// climbing on the period with three move kinds, until a local optimum (or
// the iteration budget) is reached:
//
//  1. shift a boundary stage between adjacent intervals,
//  2. swap the processor sets of two intervals,
//  3. move a processor from a multi-processor interval to another interval,
//  4. split an interval, giving the new half an idle processor,
//  5. merge two adjacent intervals (pooling their processors).
//
// Ties are broken towards lower latency. The returned mapping is always
// valid and never worse than the input.
func LocalSearchPipelinePeriod(p workflow.Pipeline, pl platform.Platform, m mapping.PipelineMapping) (mapping.PipelineMapping, mapping.Cost, error) {
	cur, err := mapping.EvalPipeline(p, pl, m)
	if err != nil {
		return mapping.PipelineMapping{}, mapping.Cost{}, err
	}
	best := m.Clone()
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, cand := range pipelineNeighbours(best, pl) {
			c, err := mapping.EvalPipeline(p, pl, cand)
			if err != nil {
				continue // neighbour construction made an invalid move; skip
			}
			if numeric.Less(c.Period, cur.Period) ||
				(numeric.Eq(c.Period, cur.Period) && numeric.Less(c.Latency, cur.Latency)) {
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

// pipelineNeighbours generates candidate moves from m. Invalid candidates
// (for example a shift that would empty an interval) are filtered by the
// caller through EvalPipeline's validation.
func pipelineNeighbours(m mapping.PipelineMapping, pl platform.Platform) []mapping.PipelineMapping {
	var out []mapping.PipelineMapping
	k := len(m.Intervals)

	// Move 1: boundary shifts between adjacent intervals.
	for i := 0; i+1 < k; i++ {
		if m.Intervals[i].Last > m.Intervals[i].First {
			// Give the last stage of interval i to interval i+1.
			c := m.Clone()
			c.Intervals[i].Last--
			c.Intervals[i+1].First--
			if legalModes(c.Intervals[i]) && legalModes(c.Intervals[i+1]) {
				out = append(out, c)
			}
		}
		if m.Intervals[i+1].Last > m.Intervals[i+1].First {
			// Take the first stage of interval i+1 into interval i.
			c := m.Clone()
			c.Intervals[i].Last++
			c.Intervals[i+1].First++
			if legalModes(c.Intervals[i]) && legalModes(c.Intervals[i+1]) {
				out = append(out, c)
			}
		}
	}

	// Move 2: swap processor sets of two intervals.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			c := m.Clone()
			c.Intervals[i].Procs, c.Intervals[j].Procs = c.Intervals[j].Procs, c.Intervals[i].Procs
			out = append(out, c)
		}
	}

	// Move 3: move one processor from a multi-processor interval to
	// another interval.
	for i := 0; i < k; i++ {
		if len(m.Intervals[i].Procs) < 2 {
			continue
		}
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			c := m.Clone()
			moved := c.Intervals[i].Procs[len(c.Intervals[i].Procs)-1]
			c.Intervals[i].Procs = c.Intervals[i].Procs[:len(c.Intervals[i].Procs)-1]
			c.Intervals[j].Procs = append(c.Intervals[j].Procs, moved)
			if legalModes(c.Intervals[j]) {
				out = append(out, c)
			}
		}
	}

	// Move 4: split an interval at each possible boundary, staffing the
	// right half with the fastest idle processor.
	used := make(map[int]bool)
	for _, iv := range m.Intervals {
		for _, q := range iv.Procs {
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
			for cut := m.Intervals[i].First; cut < m.Intervals[i].Last; cut++ {
				c := m.Clone()
				right := c.Intervals[i]
				right.First = cut + 1
				right.Procs = []int{idle}
				right.Mode = mapping.Replicated
				c.Intervals[i].Last = cut
				if !legalModes(c.Intervals[i]) {
					continue
				}
				c.Intervals = append(c.Intervals[:i+1], append([]mapping.PipelineInterval{right}, c.Intervals[i+1:]...)...)
				out = append(out, c)
			}
		}
	}

	// Move 5: merge adjacent intervals, pooling their processors.
	for i := 0; i+1 < k; i++ {
		c := m.Clone()
		merged := c.Intervals[i]
		merged.Last = c.Intervals[i+1].Last
		merged.Procs = append(merged.Procs, c.Intervals[i+1].Procs...)
		merged.Mode = mapping.Replicated
		c.Intervals = append(c.Intervals[:i], append([]mapping.PipelineInterval{merged}, c.Intervals[i+2:]...)...)
		out = append(out, c)
	}
	return out
}

// legalModes reports whether the interval's mode is still structurally
// legal after a move (a data-parallel interval must stay single-stage).
func legalModes(iv mapping.PipelineInterval) bool {
	return iv.Mode != mapping.DataParallel || iv.First == iv.Last
}
