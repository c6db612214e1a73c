package exhaustive

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// partitions enumerates the set partitions of items {0,..,m-1} into at most
// maxBlocks blocks, via restricted growth strings. Each partition is passed
// as a slice mapping item -> block index (blocks numbered 0..B-1 in order
// of first appearance). The callback must not retain the slice; it returns
// false to abort the enumeration early. assign is the scratch slice the
// enumeration writes into (len >= m).
func partitions(assign []int, m, maxBlocks int, visit func(assign []int, blocks int) bool) {
	partitionsFrom(assign, m, maxBlocks, 0, 0, visit)
}

// partitionsFrom is partitions restricted to the completions of a fixed
// restricted-growth prefix: assign[:start] already holds `start` valid
// decisions naming `used` blocks, and the enumeration fills positions
// start..m-1 in the exact order the full enumeration visits them. It is
// the shard unit of the partitioned parallel scans: the shards of
// consecutive prefixes tile the serial enumeration order.
func partitionsFrom(assign []int, m, maxBlocks, start, used int, visit func(assign []int, blocks int) bool) {
	assign = assign[:m]
	var rec func(i, used int) bool
	rec = func(i, used int) bool {
		if i == m {
			return visit(assign, used)
		}
		limit := used
		if limit >= maxBlocks {
			limit = maxBlocks - 1
		}
		for b := 0; b <= limit; b++ {
			assign[i] = b
			next := used
			if b == used {
				next++
			}
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	if m == 0 {
		return
	}
	rec(start, used)
}

// forkEnum is the resettable fork-mapping enumerator: all the scratch a
// full enumeration needs — the restricted-growth string, the block array,
// the per-block weights and their suffix sums, and the per-block leaf
// lists — allocated once and reused across runs, so the per-partition
// and per-mapping work of the hot scans allocates nothing. The mapping
// passed to visit aliases that scratch; visitors must deep-copy
// (copyForkMapping) what they retain.
type forkEnum struct {
	f       workflow.Fork
	pl      platform.Platform
	allowDP bool
	info    []maskInfo
	step    *stepper
	assign  []int
	blocks  []mapping.ForkBlock
	weights []float64 // block weights, then their suffix sums (see weighRest)
	leaves  [][]int
	// nodes counts the scan nodes visited over the enumerator's life:
	// the host-independent work measure of the cut tests.
	nodes int
}

func newForkEnum(f workflow.Fork, pl platform.Platform, allowDP bool, info []maskInfo) *forkEnum {
	p := pl.Processors()
	leaves := make([][]int, p)
	for i := range leaves {
		leaves[i] = make([]int, 0, f.Leaves())
	}
	return &forkEnum{
		f: f, pl: pl, allowDP: allowDP,
		info:    info,
		step:    newStepper(context.Background()),
		assign:  make([]int, f.Leaves()+1),
		blocks:  make([]mapping.ForkBlock, p),
		weights: make([]float64, 2*p+1),
		leaves:  leaves,
	}
}

// forkPartial is the cost state of the blocks assigned so far. The
// enumeration produces only valid mappings by construction (every leaf
// assigned exactly once, root in exactly one block, disjoint subset
// masks), so it costs them without mapping.EvalFork's validation — which
// dominated the scan profile — but with EvalFork's arithmetic, division
// for division (using the same ascending-order subset speed sums, see
// buildMaskInfo): once every block is assigned the cost is bit-identical
// to EvalFork's; TestForkInlineCostMatchesEval pins that. The root is
// item 0, so it is always in block 0 and its terms are known from the
// first block on.
type forkPartial struct {
	period    float64
	rootDelay float64 // root block weight over its speed
	rootDone  float64 // root weight over the root block's speed
	maxOther  float64 // largest non-root block weight over its speed
}

// add returns the state with one more block, of weight w, on the subset
// in under the block's mode.
func (p forkPartial) add(f *workflow.Fork, in *maskInfo, w float64, blk *mapping.ForkBlock) forkPartial {
	var per, speed float64
	if blk.Mode == mapping.DataParallel {
		speed = in.sum
		per = w / speed
	} else {
		speed = in.min
		per = w / (float64(in.count) * speed)
	}
	p.period = max(p.period, per)
	if blk.Root {
		p.rootDelay = w / speed
		p.rootDone = f.Root / speed
	} else {
		p.maxOther = max(p.maxOther, w/speed)
	}
	return p
}

// cost is the (partial) cost: each field only grows as blocks are added.
func (p forkPartial) cost() mapping.Cost {
	return mapping.Cost{Period: p.period, Latency: max(p.rootDelay, p.rootDone+p.maxOther)}
}

// ahead raises the partial state by the look-ahead bound once the root
// is placed: the blocks still to place weigh wRem and get disjoint
// subsets of processors whose speeds sum to sFree, so some block has a
// period and a delay of at least wRem/sFree (see aheadSlack).
func (p forkPartial) ahead(wRem, sFree float64) forkPartial {
	lb := wRem / sFree * aheadSlack
	p.period = max(p.period, lb)
	p.maxOther = max(p.maxOther, lb)
	return p
}

// runFrom invokes visit for every valid fork mapping whose partition
// extends a fixed restricted-growth prefix naming `used` blocks (nil
// enumerates everything) and that no cut drops, stopping early once the
// stepper latches a context error or visit returns false.
func (e *forkEnum) runFrom(ctx context.Context, prefix []int, used int, cut func(mapping.Cost) bool, visit func(mapping.ForkMapping, mapping.Cost) bool) {
	e.step.reset(ctx)
	full := (1 << e.pl.Processors()) - 1
	items := e.f.Leaves() + 1
	copy(e.assign, prefix)
	partitionsFrom(e.assign, items, e.pl.Processors(), len(prefix), used, func(assign []int, nblocks int) bool {
		blocks := e.blocks[:nblocks]
		for b := range blocks {
			blocks[b] = mapping.ForkBlock{}
		}
		blocks[assign[0]].Root = true
		for l := 0; l < e.f.Leaves(); l++ {
			b := assign[l+1]
			if blocks[b].Leaves == nil {
				blocks[b].Leaves = e.leaves[b][:0]
			}
			blocks[b].Leaves = append(blocks[b].Leaves, l)
		}
		// Keep any grown backing for the next partition, and compute the
		// block weights once per partition (they do not depend on the
		// processor assignment) in ForkBlock.weight's addition order.
		for b := range blocks {
			if blocks[b].Leaves != nil {
				e.leaves[b] = blocks[b].Leaves
			}
			var w float64
			if blocks[b].Root {
				w += e.f.Root
			}
			for _, l := range blocks[b].Leaves {
				w += e.f.Weights[l]
			}
			e.weights[b] = w
		}
		rem := weighRest(e.weights, nblocks)
		var rec func(b, usedMask int, part forkPartial) bool
		rec = func(b, usedMask int, part forkPartial) bool {
			e.nodes++
			if !e.step.ok() {
				return false
			}
			free := full &^ usedMask
			if b > 0 {
				bound := part
				if b < nblocks {
					if free == 0 {
						return true
					}
					bound = part.ahead(rem[b], e.info[free].sum)
				}
				c := bound.cost()
				if cut != nil && cut(c) {
					return true
				}
				if b == nblocks {
					return visit(mapping.ForkMapping{Blocks: blocks}, c)
				}
			}
			// Data-parallel is legal for leaf-only blocks and for the root
			// alone (Section 3.4).
			dp := e.allowDP && (!blocks[b].Root || len(blocks[b].Leaves) == 0)
			for sub := free; sub > 0; sub = (sub - 1) & free {
				if cut != nil && relabels(e.info, free, sub) {
					continue
				}
				blocks[b].Procs = e.info[sub].procs
				for _, mode := range modes(dp) {
					blocks[b].Mode = mode
					if !rec(b+1, usedMask|sub, part.add(&e.f, &e.info[sub], e.weights[b], &blocks[b])) {
						return false
					}
				}
			}
			blocks[b].Procs = nil
			blocks[b].Mode = mapping.Replicated
			return true
		}
		return rec(0, 0, forkPartial{})
	})
}

// copyForkMapping deep-copies the block, leaf and processor slices of a
// scratch mapping so it can outlive the enumeration. Copying Procs out
// of the solver's platform table happens only here — when a mapping is
// retained — never inside the enumeration loops, so callers own their
// mappings without the table ever escaping.
func copyForkMapping(m mapping.ForkMapping) mapping.ForkMapping {
	blocks := make([]mapping.ForkBlock, len(m.Blocks))
	copy(blocks, m.Blocks)
	for i := range blocks {
		blocks[i].Leaves = append([]int(nil), blocks[i].Leaves...)
		blocks[i].Procs = append([]int(nil), blocks[i].Procs...)
	}
	return mapping.ForkMapping{Blocks: blocks}
}

// EnumerateFork invokes visit for every valid fork mapping: every set
// partition of the stages (root = item 0, leaf i = item i+1), every
// assignment of disjoint non-empty processor subsets to the blocks, and
// every legal mode combination. Exhaustive ground truth for small n and p.
// Each visited mapping is an independent copy the visitor may retain.
func EnumerateFork(f workflow.Fork, pl platform.Platform, allowDP bool, visit func(mapping.ForkMapping, mapping.Cost)) {
	newForkEnum(f, pl, allowDP, buildMaskInfo(pl)).runFrom(context.Background(), nil, 0, nil, func(m mapping.ForkMapping, c mapping.Cost) bool {
		visit(copyForkMapping(m), c)
		return true
	})
}

func (e *forkEnum) err() error { return e.step.err }

func (e *forkEnum) retain(m mapping.ForkMapping) mapping.ForkMapping { return copyForkMapping(m) }

func (e *forkEnum) fresh() enumerator[mapping.ForkMapping] {
	return newForkEnum(e.f, e.pl, e.allowDP, e.info)
}

func (e *forkEnum) lowerBound(spec anytime.Spec) float64 { return anytime.ForkLB(e.f, e.pl, spec) }

// NewForkPrepared returns a prepared solver for the triple.
func NewForkPrepared(f workflow.Fork, pl platform.Platform, allowDP bool) *ForkPrepared {
	return newScanPrepared(newForkEnum(f, pl, allowDP, buildMaskInfo(pl)), f.Leaves()+1, pl.Processors(), allowDP)
}

// ForkPeriod returns a fork mapping minimizing the period.
func ForkPeriod(f workflow.Fork, pl platform.Platform, allowDP bool) (ForkResult, bool) {
	res, ok, _ := NewForkPrepared(f, pl, allowDP).Period(context.Background())
	return res, ok
}

// ForkLatency returns a fork mapping minimizing the latency.
func ForkLatency(f workflow.Fork, pl platform.Platform, allowDP bool) (ForkResult, bool) {
	res, ok, _ := NewForkPrepared(f, pl, allowDP).Latency(context.Background())
	return res, ok
}

// ForkLatencyUnderPeriod returns a fork mapping minimizing the latency
// among mappings whose period does not exceed maxPeriod.
func ForkLatencyUnderPeriod(f workflow.Fork, pl platform.Platform, allowDP bool, maxPeriod float64) (ForkResult, bool) {
	res, ok, _ := NewForkPrepared(f, pl, allowDP).LatencyUnderPeriod(context.Background(), maxPeriod)
	return res, ok
}

// ForkPeriodUnderLatency returns a fork mapping minimizing the period among
// mappings whose latency does not exceed maxLatency.
func ForkPeriodUnderLatency(f workflow.Fork, pl platform.Platform, allowDP bool, maxLatency float64) (ForkResult, bool) {
	res, ok, _ := NewForkPrepared(f, pl, allowDP).PeriodUnderLatency(context.Background(), maxLatency)
	return res, ok
}

// ForkPareto returns the exact Pareto front of (period, latency) over all
// fork mappings, ordered by increasing period.
func ForkPareto(f workflow.Fork, pl platform.Platform, allowDP bool) []ForkResult {
	var all []ForkResult
	EnumerateFork(f, pl, allowDP, func(m mapping.ForkMapping, c mapping.Cost) {
		all = append(all, ForkResult{Mapping: m, Cost: c})
	})
	return paretoFilter(all)
}

// paretoFilter keeps the results no other result dominates with a
// strict gain on one criterion, one per (period, latency) pair, ordered
// by increasing period: the enumerate-then-filter front.
func paretoFilter[M any](all []Result[M]) []Result[M] {
	var front []Result[M]
	for _, cand := range all {
		dominated := false
		for _, other := range all {
			if other.Cost.Dominates(cand.Cost) &&
				(numeric.Less(other.Cost.Period, cand.Cost.Period) || numeric.Less(other.Cost.Latency, cand.Cost.Latency)) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, kept := range front {
			if numeric.Eq(kept.Cost.Period, cand.Cost.Period) && numeric.Eq(kept.Cost.Latency, cand.Cost.Latency) {
				dup = true
				break
			}
		}
		if !dup {
			front = append(front, cand)
		}
	}
	for i := 1; i < len(front); i++ {
		for j := i; j > 0 && front[j].Cost.Period < front[j-1].Cost.Period; j-- {
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
	return front
}

var (
	replicatedOnly = []mapping.Mode{mapping.Replicated}
	bothModes      = []mapping.Mode{mapping.Replicated, mapping.DataParallel}
)

// modes lists the modes a block is tried in, in enumeration order:
// replicated, then data-parallel where dp allows it.
func modes(dp bool) []mapping.Mode {
	if dp {
		return bothModes
	}
	return replicatedOnly
}
