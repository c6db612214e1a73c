package exhaustive

import (
	"context"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// fjEnum is the resettable partition enumerator of the fork and
// fork-join scans: all the scratch a full enumeration needs — the
// restricted-growth string, the block array, the per-block weights and
// their suffix sums, and the per-block leaf lists — allocated once and
// reused across runs, so the per-partition and per-mapping work of the
// hot scans allocates nothing. Items are ordered root, leaves, join;
// blocks come from set partitions and processor subsets from disjoint
// bitmask assignments. A fork runs as a fork-join without a join: fj.Join
// is 0, join is false, no item is the join and no block sets Join. The
// mapping passed to visit aliases the scratch; visitors deep-copy
// (mapping.ForkJoinMapping.Clone) what they retain.
type fjEnum struct {
	fj      workflow.ForkJoin
	join    bool
	pl      platform.Platform
	allowDP bool
	info    []maskInfo
	step    stepper // armed by runFrom
	assign  []int
	blocks  []mapping.ForkJoinBlock
	weights []float64 // block weights, then their suffix sums (see weighRest)
	done    []float64 // per-block numerator of the leaf-done time (see fjPartial.add)
	leaves  [][]int
	// nodes counts the scan nodes visited over the enumerator's life:
	// the host-independent work measure of the cut tests.
	nodes int
}

func newFJEnum(fj workflow.ForkJoin, join bool, pl platform.Platform, allowDP bool, info []maskInfo) *fjEnum {
	// One backing array for every leaf list: a block holds at most every
	// leaf, so no list outgrows its n slots.
	p, n := pl.Processors(), fj.Leaves()
	backing, leaves := make([]int, p*n), make([][]int, p)
	for i := range leaves {
		leaves[i] = backing[i*n : i*n : (i+1)*n]
	}
	return &fjEnum{
		fj: fj, join: join, pl: pl, allowDP: allowDP,
		info:    info,
		assign:  make([]int, fj.Leaves()+2),
		blocks:  make([]mapping.ForkJoinBlock, p),
		weights: make([]float64, 2*p+1),
		done:    make([]float64, p),
		leaves:  leaves,
	}
}

// items is the number of partitioned items: the root, the leaves and,
// with a join, the join.
func (e *fjEnum) items() int {
	if e.join {
		return e.fj.Leaves() + 2
	}
	return e.fj.Leaves() + 1
}

// fresh returns a new enumerator over the same instance, for another
// worker: the scratch is single-owner, the platform table is shared
// read-only.
func (e *fjEnum) fresh() *fjEnum { return newFJEnum(e.fj, e.join, e.pl, e.allowDP, e.info) }

// fjPartial is the cost state of the blocks assigned so far. The
// enumeration produces only valid mappings by construction (every stage
// in exactly one block, disjoint subset masks), so it costs them without
// mapping.EvalForkJoin's validation — which dominated the scan profile —
// but with its arithmetic, division for division (using the same
// ascending-order subset speed sums, see buildMaskInfo): once every block
// is assigned the cost is bit-identical to EvalForkJoin's, and without a
// join to EvalFork's (TestForkJoinInlineCostMatchesEval,
// TestForkInlineCostMatchesEval). The root is item 0, so it is always in
// block 0; the join's delay counts from its block on.
type fjPartial struct {
	period    float64
	rootDone  float64 // root weight over the root block's speed
	leafDone  float64 // latest leaf completion, at least rootDone
	joinDelay float64 // join weight over the join block's speed
}

// add returns the state with one more block, of weight w, on the subset
// in under the block's mode. wd is the numerator of the block's
// leaf-done time: its leaf weight, or on the root block the root weight
// plus that — summed as EvalForkJoin sums it with a join, and as EvalFork
// sums the block's weight without one.
func (p fjPartial) add(fj *workflow.ForkJoin, in *maskInfo, w, wd float64, blk *mapping.ForkJoinBlock) fjPartial {
	// A data-parallel block's period is w over its speed sum, exactly
	// w/(1*sum); a replicated one's w over count times its least speed.
	speed, count := in.min, float64(in.count)
	if blk.Mode == mapping.DataParallel {
		speed, count = in.sum, 1
	}
	p.period = max(p.period, w/(count*speed))
	if blk.Root {
		p.rootDone = fj.Root / speed
		p.leafDone = max(p.rootDone, wd/speed)
	} else {
		p.leafDone = max(p.leafDone, p.rootDone+wd/speed)
	}
	if blk.Join {
		p.joinDelay = fj.Join / speed
	}
	return p
}

// cost is the (partial) cost: each field only grows as blocks are added.
func (p fjPartial) cost() mapping.Cost {
	return mapping.Cost{Period: p.period, Latency: p.leafDone + p.joinDelay}
}

// ahead raises the partial state by the look-ahead bound once the root
// is placed. The blocks still to place weigh wRem — their leaves, plus
// the join while it is unplaced (jRem is its weight then, else 0) — and
// get disjoint processor subsets whose speeds sum to sFree; a block's
// period and delay are at least its weight over its subset's speed sum.
// So some block has a period of at least wRem/sFree; the latest
// remaining leaf's delay plus an unplaced join's is at least wRem/sFree
// past rootDone; and an unplaced join's delay, at least jRem/sFree,
// follows the placed leaves. Until the join is placed its delay slot is
// zero, so those terms raise leafDone and the latency stays
// leafDone + joinDelay (see aheadSlack).
func (p fjPartial) ahead(wRem, jRem, sFree float64) fjPartial {
	p.period = max(p.period, wRem/sFree*aheadSlack)
	p.leafDone = max(p.leafDone+jRem/sFree*aheadSlack, (p.rootDone+wRem/sFree)*aheadSlack)
	return p
}

// runFrom invokes visit for every valid mapping whose partition extends
// a fixed restricted-growth prefix naming `used` blocks (nil enumerates
// everything), in enumeration order, stopping early once the stepper
// latches a context error or visit returns false. After each block's
// processors and mode are chosen, cut sees the partial cost of the
// blocks assigned so far — raised by the look-ahead bound while blocks
// remain, so it never exceeds the cost of any completion in either
// field — and a true answer skips every completion. A nil cut visits
// every mapping.
func (e *fjEnum) runFrom(ctx context.Context, prefix []int, used int, cut func(mapping.Cost) bool, visit func(mapping.ForkJoinMapping, mapping.Cost) bool) {
	e.step.reset(ctx)
	full := (1 << e.pl.Processors()) - 1
	items := e.items()
	copy(e.assign, prefix)
	partitionsFrom(e.assign, items, e.pl.Processors(), len(prefix), used, func(assign []int, nblocks int) bool {
		blocks := e.blocks[:nblocks]
		for b := range blocks {
			blocks[b] = mapping.ForkJoinBlock{}
		}
		blocks[assign[0]].Root = true
		joinBlock := -1
		if e.join {
			joinBlock = assign[items-1]
			blocks[joinBlock].Join = true
		}
		for l := 0; l < e.fj.Leaves(); l++ {
			b := assign[l+1]
			if blocks[b].Leaves == nil {
				blocks[b].Leaves = e.leaves[b][:0]
			}
			blocks[b].Leaves = append(blocks[b].Leaves, l)
		}
		// Precompute per-partition weights in ForkJoinBlock.weight's
		// addition order (root, join, then leaves) plus the leaf-done
		// numerators.
		for b := range blocks {
			var w, wl float64
			if blocks[b].Root {
				w += e.fj.Root
			}
			if blocks[b].Join {
				w += e.fj.Join
			}
			for _, l := range blocks[b].Leaves {
				w += e.fj.Weights[l]
				wl += e.fj.Weights[l]
			}
			e.weights[b], e.done[b] = w, wl
			if blocks[b].Root {
				// EvalForkJoin adds the leaf sum to the root weight;
				// EvalFork takes the root block's own weight.
				e.done[b] = e.fj.Root + wl
				if !e.join {
					e.done[b] = w
				}
			}
		}
		rem := weighRest(e.weights, nblocks)
		var rec func(b, usedMask int, part fjPartial) bool
		rec = func(b, usedMask int, part fjPartial) bool {
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
					var jRem float64
					if b <= joinBlock {
						jRem = e.fj.Join
					}
					bound = part.ahead(rem[b], jRem, e.info[free].sum)
				}
				c := bound.cost()
				if cut != nil && cut(c) {
					return true
				}
				if b == nblocks {
					return visit(mapping.ForkJoinMapping{Blocks: blocks}, c)
				}
			}
			// Data-parallel requires the block to be leaf-only, or the
			// root alone, or the join alone (Section 3.4).
			alone := len(blocks[b].Leaves) == 0 && !(blocks[b].Root && blocks[b].Join)
			dp := e.allowDP && ((!blocks[b].Root && !blocks[b].Join) || alone)
			for sub := free; sub > 0; sub = (sub - 1) & free {
				if cut != nil && relabels(e.info, free, sub) {
					continue
				}
				blocks[b].Procs = e.info[sub].procs
				for _, mode := range modes(dp) {
					blocks[b].Mode = mode
					if !rec(b+1, usedMask|sub, part.add(&e.fj, &e.info[sub], e.weights[b], e.done[b], &blocks[b])) {
						return false
					}
				}
			}
			blocks[b].Procs = nil
			blocks[b].Mode = mapping.Replicated
			return true
		}
		return rec(0, 0, fjPartial{})
	})
}

// NewForkJoinPrepared returns a prepared solver for the triple.
func NewForkJoinPrepared(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) *ForkJoinPrepared {
	return newPrepared(newFJEnum(fj, true, pl, allowDP, buildMaskInfo(pl)))
}

// ForkJoinPeriod returns a fork-join mapping minimizing the period.
func ForkJoinPeriod(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) (ForkJoinResult, bool) {
	res, ok, _ := NewForkJoinPrepared(fj, pl, allowDP).Period(context.Background())
	return res, ok
}

// ForkJoinLatency returns a fork-join mapping minimizing the latency.
func ForkJoinLatency(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) (ForkJoinResult, bool) {
	res, ok, _ := NewForkJoinPrepared(fj, pl, allowDP).Latency(context.Background())
	return res, ok
}

// ForkJoinLatencyUnderPeriod minimizes latency under a period bound.
func ForkJoinLatencyUnderPeriod(fj workflow.ForkJoin, pl platform.Platform, allowDP bool, maxPeriod float64) (ForkJoinResult, bool) {
	res, ok, _ := NewForkJoinPrepared(fj, pl, allowDP).LatencyUnderPeriod(context.Background(), maxPeriod)
	return res, ok
}

// ForkJoinPeriodUnderLatency minimizes period under a latency bound.
func ForkJoinPeriodUnderLatency(fj workflow.ForkJoin, pl platform.Platform, allowDP bool, maxLatency float64) (ForkJoinResult, bool) {
	res, ok, _ := NewForkJoinPrepared(fj, pl, allowDP).PeriodUnderLatency(context.Background(), maxLatency)
	return res, ok
}
