package mapping

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// ForkBlock maps a set of fork stages onto a processor set. Root indicates
// the block contains S0; Leaves lists the independent stages it contains
// (0-indexed: leaf i is stage S_{i+1} of the paper).
type ForkBlock struct {
	Root   bool
	Leaves []int
	Assignment
}

// ForkMapping partitions the stages of a fork into blocks. The paper calls
// the blocks "intervals" by analogy with the pipeline case, but any subset
// of independent stages is allowed.
type ForkMapping struct {
	Blocks []ForkBlock
}

// Clone returns a deep copy of m: its blocks and their leaf and
// processor lists are fresh, and an empty list stays nil.
func (m ForkMapping) Clone() ForkMapping {
	out := ForkMapping{Blocks: make([]ForkBlock, len(m.Blocks))}
	copy(out.Blocks, m.Blocks)
	for i := range out.Blocks {
		out.Blocks[i].Leaves = append([]int(nil), out.Blocks[i].Leaves...)
		out.Blocks[i].Procs = append([]int(nil), out.Blocks[i].Procs...)
	}
	return out
}

// ForkJoin returns m as the mapping of the fork's fork-join without a
// join, the inverse of ForkJoinMapping.Fork: m's blocks with no Join
// flag set. The blocks share m's leaf and processor lists, and a nil
// block list stays nil.
func (m ForkMapping) ForkJoin() ForkJoinMapping {
	if m.Blocks == nil {
		return ForkJoinMapping{}
	}
	out := ForkJoinMapping{Blocks: make([]ForkJoinBlock, len(m.Blocks))}
	for i, b := range m.Blocks {
		out.Blocks[i] = ForkJoinBlock{Root: b.Root, Leaves: b.Leaves, Assignment: b.Assignment}
	}
	return out
}

// NewForkBlock is a convenience constructor.
func NewForkBlock(root bool, leaves []int, mode Mode, procs ...int) ForkBlock {
	return ForkBlock{Root: root, Leaves: leaves, Assignment: Assignment{Procs: procs, Mode: mode}}
}

// weight returns the total computation of the block.
func (b ForkBlock) weight(f workflow.Fork) float64 {
	var w float64
	if b.Root {
		w += f.Root
	}
	for _, l := range b.Leaves {
		w += f.Weights[l]
	}
	return w
}

// ValidateFork checks the structural rules of Section 3.4 for forks:
//   - exactly one block contains S0, every leaf appears in exactly one block;
//   - processor sets are valid and pairwise disjoint;
//   - a data-parallel block may contain any set of independent stages, or S0
//     alone; S0 cannot be data-parallelized together with other stages.
func ValidateFork(f workflow.Fork, pl platform.Platform, m ForkMapping) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(m.Blocks) == 0 {
		return errors.New("mapping: fork mapping has no block")
	}
	rootBlocks := 0
	seenLeaf := make([]bool, f.Leaves())
	groups := make([]Assignment, 0, len(m.Blocks))
	for i, b := range m.Blocks {
		if b.Root {
			rootBlocks++
		}
		if !b.Root && len(b.Leaves) == 0 {
			return fmt.Errorf("mapping: block %d contains no stage", i)
		}
		for _, l := range b.Leaves {
			if l < 0 || l >= f.Leaves() {
				return fmt.Errorf("mapping: block %d references leaf %d out of range [0,%d)", i, l, f.Leaves())
			}
			if seenLeaf[l] {
				return fmt.Errorf("mapping: leaf stage S%d assigned to two blocks", l+1)
			}
			seenLeaf[l] = true
		}
		if err := b.Assignment.validate(pl); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if b.Mode == DataParallel && b.Root && len(b.Leaves) > 0 {
			return fmt.Errorf("mapping: block %d data-parallelizes S0 together with %d other stages (forbidden by Section 3.4)", i, len(b.Leaves))
		}
		groups = append(groups, b.Assignment)
	}
	if rootBlocks != 1 {
		return fmt.Errorf("mapping: %d blocks contain the root stage, want exactly 1", rootBlocks)
	}
	for l, ok := range seenLeaf {
		if !ok {
			return fmt.Errorf("mapping: leaf stage S%d not mapped", l+1)
		}
	}
	return checkDisjoint(groups)
}

// EvalFork validates the mapping and returns its period and latency under
// the flexible model of Section 3.4:
//
//	T_period  = max_r period(r)
//	T_latency = max( tmax(1), w0/s0 + max_{r>=2} tmax(r) )
//
// where block 1 holds S0 and s0 is the speed at which S0 is processed
// (sum of speeds if block 1 is data-parallel, min speed if replicated).
func EvalFork(f workflow.Fork, pl platform.Platform, m ForkMapping) (Cost, error) {
	if err := ValidateFork(f, pl, m); err != nil {
		return Cost{}, err
	}
	var c Cost
	rootDelay, rootSpeed := 0.0, 0.0
	maxOtherDelay := 0.0
	for _, b := range m.Blocks {
		w := b.weight(f)
		if per := b.groupPeriod(w, pl); per > c.Period {
			c.Period = per
		}
		if b.Root {
			rootDelay = b.groupDelay(w, pl)
			if b.Mode == DataParallel {
				rootSpeed = pl.SubsetSpeedSum(b.Procs)
			} else {
				rootSpeed = pl.SubsetMinSpeed(b.Procs)
			}
		} else if d := b.groupDelay(w, pl); d > maxOtherDelay {
			maxOtherDelay = d
		}
	}
	c.Latency = rootDelay
	if t := f.Root/rootSpeed + maxOtherDelay; t > c.Latency {
		c.Latency = t
	}
	return c, nil
}

// String renders the mapping in a compact human-readable form.
func (m ForkMapping) String() string {
	parts := make([]string, len(m.Blocks))
	for i, b := range m.Blocks {
		var stages []string
		if b.Root {
			stages = append(stages, "S0")
		}
		sorted := append([]int(nil), b.Leaves...)
		sort.Ints(sorted)
		for _, l := range sorted {
			stages = append(stages, fmt.Sprintf("S%d", l+1))
		}
		parts[i] = fmt.Sprintf("[{%s} %s on %s]", strings.Join(stages, ","), b.Mode, procsLabel(b.Procs))
	}
	return strings.Join(parts, " ")
}

// UsedProcessors returns the number of processors enrolled by the mapping.
func (m ForkMapping) UsedProcessors() int {
	n := 0
	for _, b := range m.Blocks {
		n += len(b.Procs)
	}
	return n
}
