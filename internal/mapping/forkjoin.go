package mapping

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// ForkJoinBlock maps a set of fork-join stages onto a processor set. At most
// one block has Root set and at most one has Join set; they may be the same
// block (Section 6.3: the interval in charge of S_{n+1} "can either be the
// one in charge of S0 or another one").
type ForkJoinBlock struct {
	Root   bool
	Join   bool
	Leaves []int
	Assignment
}

// ForkJoinMapping partitions the stages of a fork-join graph into blocks.
type ForkJoinMapping struct {
	Blocks []ForkJoinBlock
}

// Clone returns a deep copy of m: its blocks and their leaf and
// processor lists are fresh, and an empty list stays nil.
func (m ForkJoinMapping) Clone() ForkJoinMapping {
	out := ForkJoinMapping{Blocks: make([]ForkJoinBlock, len(m.Blocks))}
	copy(out.Blocks, m.Blocks)
	for i := range out.Blocks {
		out.Blocks[i].Leaves = append([]int(nil), out.Blocks[i].Leaves...)
		out.Blocks[i].Procs = append([]int(nil), out.Blocks[i].Procs...)
	}
	return out
}

// Fork returns m as a fork mapping: a fork is mapped as a fork-join
// without a join (see EvalForkJoin), so its mapping is m's blocks with
// their Join flags dropped. The blocks share m's leaf and processor
// lists, and a nil block list stays nil.
func (m ForkJoinMapping) Fork() ForkMapping {
	if m.Blocks == nil {
		return ForkMapping{}
	}
	return m.appendFork(make([]ForkBlock, 0, len(m.Blocks)))
}

// appendFork is Fork with m's blocks appended to blocks.
func (m ForkJoinMapping) appendFork(blocks []ForkBlock) ForkMapping {
	for _, b := range m.Blocks {
		blocks = append(blocks, ForkBlock{Root: b.Root, Leaves: b.Leaves, Assignment: b.Assignment})
	}
	return ForkMapping{Blocks: blocks}
}

// EvalForkGraph prices m on a fork graph: EvalForkJoin's cost on the
// fork-join fj when join is set, and otherwise EvalFork's cost of
// m.Fork() on the fork fj is without a join, whose mappings set no Join
// flag. EvalForkJoin cannot price the fork: it sums a root block's
// weights in another order, which may differ in the last bit. The fork
// view of a mapping of up to 16 blocks lives on the stack, so pricing a
// fork allocates no more than EvalFork does.
func EvalForkGraph(fj workflow.ForkJoin, join bool, pl platform.Platform, m ForkJoinMapping) (Cost, error) {
	if join {
		return EvalForkJoin(fj, pl, m)
	}
	var blocks [16]ForkBlock
	return EvalFork(workflow.Fork{Root: fj.Root, Weights: fj.Weights}, pl, m.appendFork(blocks[:0]))
}

// NewForkJoinBlock is a convenience constructor.
func NewForkJoinBlock(root, join bool, leaves []int, mode Mode, procs ...int) ForkJoinBlock {
	return ForkJoinBlock{Root: root, Join: join, Leaves: leaves, Assignment: Assignment{Procs: procs, Mode: mode}}
}

// weight returns the total computation of the block.
func (b ForkJoinBlock) weight(fj workflow.ForkJoin) float64 {
	var w float64
	if b.Root {
		w += fj.Root
	}
	if b.Join {
		w += fj.Join
	}
	for _, l := range b.Leaves {
		w += fj.Weights[l]
	}
	return w
}

// ValidateForkJoin checks the structural rules extended to fork-join graphs:
//   - exactly one block holds S0 and exactly one holds S_{n+1} (possibly the
//     same block); every leaf appears in exactly one block;
//   - processor sets are valid and pairwise disjoint;
//   - a data-parallel block holding S0 or S_{n+1} must hold that stage alone
//     (both carry dependence relations with every leaf, mirroring the
//     Section 3.4 restriction on S0).
func ValidateForkJoin(fj workflow.ForkJoin, pl platform.Platform, m ForkJoinMapping) error {
	if err := fj.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(m.Blocks) == 0 {
		return errors.New("mapping: fork-join mapping has no block")
	}
	rootBlocks, joinBlocks := 0, 0
	seenLeaf := make([]bool, fj.Leaves())
	groups := make([]Assignment, 0, len(m.Blocks))
	for i, b := range m.Blocks {
		if b.Root {
			rootBlocks++
		}
		if b.Join {
			joinBlocks++
		}
		if !b.Root && !b.Join && len(b.Leaves) == 0 {
			return fmt.Errorf("mapping: block %d contains no stage", i)
		}
		for _, l := range b.Leaves {
			if l < 0 || l >= fj.Leaves() {
				return fmt.Errorf("mapping: block %d references leaf %d out of range [0,%d)", i, l, fj.Leaves())
			}
			if seenLeaf[l] {
				return fmt.Errorf("mapping: leaf stage S%d assigned to two blocks", l+1)
			}
			seenLeaf[l] = true
		}
		if err := b.Assignment.validate(pl); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if b.Mode == DataParallel {
			if b.Root && (len(b.Leaves) > 0 || b.Join) {
				return fmt.Errorf("mapping: block %d data-parallelizes S0 together with other stages", i)
			}
			if b.Join && (len(b.Leaves) > 0 || b.Root) {
				return fmt.Errorf("mapping: block %d data-parallelizes the join stage together with other stages", i)
			}
		}
		groups = append(groups, b.Assignment)
	}
	if rootBlocks != 1 {
		return fmt.Errorf("mapping: %d blocks contain the root stage, want exactly 1", rootBlocks)
	}
	if joinBlocks != 1 {
		return fmt.Errorf("mapping: %d blocks contain the join stage, want exactly 1", joinBlocks)
	}
	for l, ok := range seenLeaf {
		if !ok {
			return fmt.Errorf("mapping: leaf stage S%d not mapped", l+1)
		}
	}
	return checkDisjoint(groups)
}

// EvalForkJoin validates the mapping and returns its period and latency.
//
// The period is the maximum block period, as for forks. The latency uses
// the flexible model with blocks executing their stages in dependence order
// (S0, then leaves, then S_{n+1}):
//
//	rootDone    = w0 / s0
//	leafDone(B) = (w0 + WL(B))/sB           if B is the root block
//	            = rootDone + WL(B)/sB       otherwise
//	T_leafdone  = max(rootDone, max_B leafDone(B))
//	T_latency   = T_leafdone + w_{n+1}/sJ
//
// where sB is the block's delay speed (min speed if replicated, sum of
// speeds if data-parallel), s0 that of the root block and sJ that of the
// join block. Dropping the join stage recovers exactly the fork formula of
// Section 3.4.
func EvalForkJoin(fj workflow.ForkJoin, pl platform.Platform, m ForkJoinMapping) (Cost, error) {
	if err := ValidateForkJoin(fj, pl, m); err != nil {
		return Cost{}, err
	}
	var c Cost
	var rootSpeed, joinSpeed float64
	for _, b := range m.Blocks {
		w := b.weight(fj)
		if per := b.groupPeriod(w, pl); per > c.Period {
			c.Period = per
		}
		speed := pl.SubsetMinSpeed(b.Procs)
		if b.Mode == DataParallel {
			speed = pl.SubsetSpeedSum(b.Procs)
		}
		if b.Root {
			rootSpeed = speed
		}
		if b.Join {
			joinSpeed = speed
		}
	}
	rootDone := fj.Root / rootSpeed
	leafDone := rootDone
	for _, b := range m.Blocks {
		var wl float64
		for _, l := range b.Leaves {
			wl += fj.Weights[l]
		}
		if wl == 0 {
			continue
		}
		speed := pl.SubsetMinSpeed(b.Procs)
		if b.Mode == DataParallel {
			speed = pl.SubsetSpeedSum(b.Procs)
		}
		var done float64
		if b.Root {
			done = (fj.Root + wl) / speed
		} else {
			done = rootDone + wl/speed
		}
		if done > leafDone {
			leafDone = done
		}
	}
	c.Latency = leafDone + fj.Join/joinSpeed
	return c, nil
}

// ReplicateAllForkJoin maps the whole fork-join graph as one block
// replicated onto every processor — optimal for the period on homogeneous
// platforms (Theorem 10 extended in Section 6.3). The processor and leaf
// lists are capped views of one array, so appending to either copies it.
func ReplicateAllForkJoin(fj workflow.ForkJoin, pl platform.Platform) ForkJoinMapping {
	p := pl.Processors()
	ids := make([]int, p+fj.Leaves())
	for i := range ids[:p] {
		ids[i] = i
	}
	for i := range ids[p:] {
		ids[p+i] = i
	}
	return ForkJoinMapping{Blocks: []ForkJoinBlock{
		{Root: true, Join: true, Leaves: ids[p:], Assignment: Assignment{Procs: ids[:p:p], Mode: Replicated}},
	}}
}

// String renders the mapping in a compact human-readable form.
func (m ForkJoinMapping) String() string {
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
		if b.Join {
			stages = append(stages, "Sjoin")
		}
		parts[i] = fmt.Sprintf("[{%s} %s on %s]", strings.Join(stages, ","), b.Mode, procsLabel(b.Procs))
	}
	return strings.Join(parts, " ")
}

// UsedProcessors returns the number of processors enrolled by the mapping.
func (m ForkJoinMapping) UsedProcessors() int {
	n := 0
	for _, b := range m.Blocks {
		n += len(b.Procs)
	}
	return n
}
