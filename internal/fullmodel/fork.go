package fullmodel

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Fork is a fork graph in the general model of Sections 3.2-3.3: the root
// S0 receives In (= delta_{-1}) from Pin, broadcasts its output of size
// Out0 (= delta_0) to every other block under the one-port model, and each
// leaf k returns Outs[k] (= delta_k) to Pout.
type Fork struct {
	Root    float64
	In      float64
	Out0    float64
	Weights []float64
	Outs    []float64
}

// Validate checks the fork is well formed.
func (f Fork) Validate() error {
	if f.Root <= 0 {
		return fmt.Errorf("fullmodel: non-positive root weight %v", f.Root)
	}
	if len(f.Outs) != len(f.Weights) {
		return fmt.Errorf("fullmodel: %d output sizes for %d leaves", len(f.Outs), len(f.Weights))
	}
	if f.In < 0 || f.Out0 < 0 {
		return errors.New("fullmodel: negative input/broadcast size")
	}
	for i, w := range f.Weights {
		if w <= 0 {
			return fmt.Errorf("fullmodel: leaf %d has non-positive weight %v", i, w)
		}
		if f.Outs[i] < 0 {
			return fmt.Errorf("fullmodel: leaf %d has negative output size", i)
		}
	}
	return nil
}

// ForkBlock assigns a set of leaves to one processor; the block holding
// the root is identified by ForkMapping.RootBlock.
type ForkBlock struct {
	Proc   int
	Leaves []int
}

// ForkMapping partitions a fork onto distinct processors, one per block.
// SendOrder lists the non-root block indices in the order the root
// processor serializes its one-port sends; leave nil to use the mapping
// order.
type ForkMapping struct {
	RootBlock int
	Blocks    []ForkBlock
	SendOrder []int
}

// String renders the mapping in the compact block form of the
// simplified-model mappings; the root block is marked with S0.
func (m ForkMapping) String() string {
	parts := make([]string, len(m.Blocks))
	for i, b := range m.Blocks {
		var stages []string
		if i == m.RootBlock {
			stages = append(stages, "S0")
		}
		sorted := append([]int(nil), b.Leaves...)
		sort.Ints(sorted)
		for _, l := range sorted {
			stages = append(stages, fmt.Sprintf("S%d", l+1))
		}
		parts[i] = fmt.Sprintf("[{%s} on P%d]", strings.Join(stages, ","), b.Proc+1)
	}
	return strings.Join(parts, " ")
}

// ValidateFork checks the mapping.
func ValidateFork(f Fork, pl Platform, m ForkMapping) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(m.Blocks) == 0 || m.RootBlock < 0 || m.RootBlock >= len(m.Blocks) {
		return errors.New("fullmodel: fork mapping has no valid root block")
	}
	seenProc := make(map[int]bool)
	seenLeaf := make([]bool, len(f.Weights))
	for i, b := range m.Blocks {
		if b.Proc < 0 || b.Proc >= pl.Processors() {
			return fmt.Errorf("fullmodel: block %d on invalid processor %d", i, b.Proc)
		}
		if seenProc[b.Proc] {
			return fmt.Errorf("fullmodel: processor P%d used twice", b.Proc+1)
		}
		seenProc[b.Proc] = true
		if i != m.RootBlock && len(b.Leaves) == 0 {
			return fmt.Errorf("fullmodel: block %d is empty", i)
		}
		for _, l := range b.Leaves {
			if l < 0 || l >= len(f.Weights) {
				return fmt.Errorf("fullmodel: block %d references leaf %d out of range", i, l)
			}
			if seenLeaf[l] {
				return fmt.Errorf("fullmodel: leaf %d mapped twice", l)
			}
			seenLeaf[l] = true
		}
	}
	for l, ok := range seenLeaf {
		if !ok {
			return fmt.Errorf("fullmodel: leaf %d not mapped", l)
		}
	}
	if m.SendOrder != nil {
		if len(m.SendOrder) != len(m.Blocks)-1 {
			return fmt.Errorf("fullmodel: send order has %d entries for %d non-root blocks",
				len(m.SendOrder), len(m.Blocks)-1)
		}
		seen := make(map[int]bool)
		for _, b := range m.SendOrder {
			if b < 0 || b >= len(m.Blocks) || b == m.RootBlock || seen[b] {
				return fmt.Errorf("fullmodel: invalid send order entry %d", b)
			}
			seen[b] = true
		}
	}
	return nil
}

// blockTimes returns a block's computation time and its output time to
// Pout on its processor.
func (f Fork) blockTimes(pl Platform, b ForkBlock) (compute, out float64) {
	for _, l := range b.Leaves {
		compute += f.Weights[l] / pl.Speeds[b.Proc]
		out += f.Outs[l] / pl.OutBand[b.Proc]
	}
	return compute, out
}

// EvalFork computes the latency and period of a one-port fork mapping
// (Section 3.3). Under the flexible model the root processor, after
// receiving In and computing S0, serializes its sends in SendOrder and
// only then computes its own leaves; each non-root block starts once its
// receive completes, computes, and returns its outputs to Pout. Under the
// strict model (single execution thread computing everything first), set
// strict to true: sends start only after the root block's own leaves.
//
// The period of a processor is the time it spends receiving, computing and
// sending for one data set (the paper's informal definition); the mapping
// period is the maximum over processors.
func EvalFork(f Fork, pl Platform, m ForkMapping, strict bool) (Cost, error) {
	if err := ValidateFork(f, pl, m); err != nil {
		return Cost{}, err
	}
	return evalForkTrusted(f, pl, m, strict), nil
}

// evalForkTrusted is EvalFork without the validation pass, for mappings
// that are valid by construction (the exhaustive enumeration, the
// prepared solvers). Both entry points share this code, so their costs
// are bit-identical.
func evalForkTrusted(f Fork, pl Platform, m ForkMapping, strict bool) Cost {
	root := m.Blocks[m.RootBlock]
	rootIn := f.In / pl.InBand[root.Proc]
	s0Done := rootIn + f.Root/pl.Speeds[root.Proc]
	ownCompute, ownOut := f.blockTimes(pl, root)

	order := m.SendOrder
	if order == nil {
		for i := range m.Blocks {
			if i != m.RootBlock {
				order = append(order, i)
			}
		}
	}

	sendStart := s0Done
	if strict {
		sendStart += ownCompute
	}
	var c Cost
	totalSend := 0.0
	for _, bi := range order {
		b := m.Blocks[bi]
		sendTime := f.Out0 / pl.Band[root.Proc][b.Proc]
		totalSend += sendTime
		recvDone := sendStart + totalSend
		compute, out := f.blockTimes(pl, b)
		done := recvDone + compute + out
		if done > c.Latency {
			c.Latency = done
		}
		// Block period: receive + compute + output.
		if per := sendTime + compute + out; per > c.Period {
			c.Period = per
		}
	}
	// The root block's own completion.
	var rootDone float64
	if strict {
		rootDone = s0Done + ownCompute + totalSend + ownOut
	} else {
		rootDone = sendStart + totalSend + ownCompute + ownOut
	}
	if rootDone > c.Latency {
		c.Latency = rootDone
	}
	if per := rootIn + f.Root/pl.Speeds[root.Proc] + ownCompute + totalSend + ownOut; per > c.Period {
		c.Period = per
	}
	return c
}

// OptimalSendOrder returns the latency-minimizing one-port send order for
// the mapping: non-root blocks sorted by non-increasing post-receive time
// (computation plus output). The classic adjacent-exchange argument shows
// this dominates any other order regardless of the individual send times.
func OptimalSendOrder(f Fork, pl Platform, m ForkMapping) []int {
	type entry struct {
		block int
		post  float64
	}
	var entries []entry
	for i, b := range m.Blocks {
		if i == m.RootBlock {
			continue
		}
		compute, out := f.blockTimes(pl, b)
		entries = append(entries, entry{block: i, post: compute + out})
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].post > entries[b].post })
	order := make([]int, len(entries))
	for i, e := range entries {
		order[i] = e.block
	}
	return order
}
