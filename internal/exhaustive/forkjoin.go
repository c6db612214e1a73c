package exhaustive

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// fjEnum is the resettable fork-join enumerator, sharing scratch across
// runs exactly like forkEnum. Items are ordered root, leaves, join; blocks
// come from set partitions and processor subsets from disjoint bitmask
// assignments. The mapping passed to visit aliases the scratch; visitors
// deep-copy (copyForkJoinMapping) what they retain.
type fjEnum struct {
	fj      workflow.ForkJoin
	pl      platform.Platform
	allowDP bool
	info    []maskInfo
	step    *stepper
	assign  []int
	blocks  []mapping.ForkJoinBlock
	weights []float64 // block weights, then their suffix sums (see weighRest)
	leafW   []float64 // per-block leaf-only weight (no root/join share)
	leaves  [][]int
	// nodes counts the scan nodes visited over the enumerator's life:
	// the host-independent work measure of the cut tests.
	nodes int
}

func newFJEnum(fj workflow.ForkJoin, pl platform.Platform, allowDP bool, info []maskInfo) *fjEnum {
	p := pl.Processors()
	leaves := make([][]int, p)
	for i := range leaves {
		leaves[i] = make([]int, 0, fj.Leaves())
	}
	return &fjEnum{
		fj: fj, pl: pl, allowDP: allowDP,
		info:    info,
		step:    newStepper(context.Background()),
		assign:  make([]int, fj.Leaves()+2),
		blocks:  make([]mapping.ForkJoinBlock, p),
		weights: make([]float64, 2*p+1),
		leafW:   make([]float64, p),
		leaves:  leaves,
	}
}

// fjPartial is the cost state of the blocks assigned so far, kept
// exactly as forkPartial is for forks: once every block is assigned the
// cost is bit-identical to mapping.EvalForkJoin's
// (TestForkJoinInlineCostMatchesEval). The root is item 0, so it is
// always in block 0; the join's delay counts from its block on.
type fjPartial struct {
	period    float64
	rootDone  float64 // root weight over the root block's speed
	leafDone  float64 // latest leaf completion, at least rootDone
	joinDelay float64 // join weight over the join block's speed
}

// add returns the state with one more block, of weight w and leaf-only
// weight wl, on the subset in under the block's mode.
func (p fjPartial) add(fj *workflow.ForkJoin, in *maskInfo, w, wl float64, blk *mapping.ForkJoinBlock) fjPartial {
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
		p.rootDone = fj.Root / speed
		p.leafDone = p.rootDone
	}
	if blk.Join {
		p.joinDelay = fj.Join / speed
	}
	if wl != 0 {
		if blk.Root {
			p.leafDone = max(p.leafDone, (fj.Root+wl)/speed)
		} else {
			p.leafDone = max(p.leafDone, p.rootDone+wl/speed)
		}
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

// runFrom invokes visit for every valid fork-join mapping whose
// partition extends a fixed restricted-growth prefix naming `used`
// blocks (nil enumerates everything) and that no cut drops, stopping
// early once the stepper latches a context error or visit returns
// false.
func (e *fjEnum) runFrom(ctx context.Context, prefix []int, used int, cut func(mapping.Cost) bool, visit func(mapping.ForkJoinMapping, mapping.Cost) bool) {
	e.step.reset(ctx)
	full := (1 << e.pl.Processors()) - 1
	items := e.fj.Leaves() + 2
	copy(e.assign, prefix)
	partitionsFrom(e.assign, items, e.pl.Processors(), len(prefix), used, func(assign []int, nblocks int) bool {
		blocks := e.blocks[:nblocks]
		for b := range blocks {
			blocks[b] = mapping.ForkJoinBlock{}
		}
		blocks[assign[0]].Root = true
		blocks[assign[items-1]].Join = true
		for l := 0; l < e.fj.Leaves(); l++ {
			b := assign[l+1]
			if blocks[b].Leaves == nil {
				blocks[b].Leaves = e.leaves[b][:0]
			}
			blocks[b].Leaves = append(blocks[b].Leaves, l)
		}
		// Keep grown leaf backing, and precompute per-partition weights in
		// ForkJoinBlock.weight's addition order (root, join, then leaves)
		// plus the leaf-only weight of EvalForkJoin's latency pass.
		for b := range blocks {
			if blocks[b].Leaves != nil {
				e.leaves[b] = blocks[b].Leaves
			}
			var w float64
			if blocks[b].Root {
				w += e.fj.Root
			}
			if blocks[b].Join {
				w += e.fj.Join
			}
			var wl float64
			for _, l := range blocks[b].Leaves {
				w += e.fj.Weights[l]
				wl += e.fj.Weights[l]
			}
			e.weights[b] = w
			e.leafW[b] = wl
		}
		rem, joinBlock := weighRest(e.weights, nblocks), assign[items-1]
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
			// root alone, or the join alone.
			alone := len(blocks[b].Leaves) == 0 && !(blocks[b].Root && blocks[b].Join)
			dp := e.allowDP && ((!blocks[b].Root && !blocks[b].Join) || alone)
			for sub := free; sub > 0; sub = (sub - 1) & free {
				if cut != nil && relabels(e.info, free, sub) {
					continue
				}
				blocks[b].Procs = e.info[sub].procs
				for _, mode := range modes(dp) {
					blocks[b].Mode = mode
					if !rec(b+1, usedMask|sub, part.add(&e.fj, &e.info[sub], e.weights[b], e.leafW[b], &blocks[b])) {
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

// copyForkJoinMapping deep-copies the block, leaf and processor slices
// of a scratch mapping (Procs are copied out of the shared platform
// table exactly as in copyForkMapping: on retention, not per visit).
func copyForkJoinMapping(m mapping.ForkJoinMapping) mapping.ForkJoinMapping {
	blocks := make([]mapping.ForkJoinBlock, len(m.Blocks))
	copy(blocks, m.Blocks)
	for i := range blocks {
		blocks[i].Leaves = append([]int(nil), blocks[i].Leaves...)
		blocks[i].Procs = append([]int(nil), blocks[i].Procs...)
	}
	return mapping.ForkJoinMapping{Blocks: blocks}
}

// EnumerateForkJoin invokes visit for every valid fork-join mapping. Each
// visited mapping is an independent copy the visitor may retain.
func EnumerateForkJoin(fj workflow.ForkJoin, pl platform.Platform, allowDP bool, visit func(mapping.ForkJoinMapping, mapping.Cost)) {
	newFJEnum(fj, pl, allowDP, buildMaskInfo(pl)).runFrom(context.Background(), nil, 0, nil, func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
		visit(copyForkJoinMapping(m), c)
		return true
	})
}

// ForkJoinPareto returns the exact Pareto front of (period, latency) over
// all fork-join mappings, ordered by increasing period: every mapping
// enumerated, then filtered, as ForkPareto does for forks.
func ForkJoinPareto(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) []ForkJoinResult {
	var all []ForkJoinResult
	EnumerateForkJoin(fj, pl, allowDP, func(m mapping.ForkJoinMapping, c mapping.Cost) {
		all = append(all, ForkJoinResult{Mapping: m, Cost: c})
	})
	return paretoFilter(all)
}

func (e *fjEnum) err() error { return e.step.err }

func (e *fjEnum) retain(m mapping.ForkJoinMapping) mapping.ForkJoinMapping {
	return copyForkJoinMapping(m)
}

func (e *fjEnum) fresh() enumerator[mapping.ForkJoinMapping] {
	return newFJEnum(e.fj, e.pl, e.allowDP, e.info)
}

func (e *fjEnum) lowerBound(spec anytime.Spec) float64 { return anytime.ForkJoinLB(e.fj, e.pl, spec) }

// NewForkJoinPrepared returns a prepared solver for the triple.
func NewForkJoinPrepared(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) *ForkJoinPrepared {
	return newScanPrepared(newFJEnum(fj, pl, allowDP, buildMaskInfo(pl)), fj.Leaves()+2, pl.Processors(), allowDP)
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
