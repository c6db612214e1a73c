package exhaustive

import (
	"context"

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

// joinless is a fork as the fork-join the scans run it as: no join stage.
func joinless(f workflow.Fork) workflow.ForkJoin {
	return workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
}

// forkResult is the fork answer of a joinless scan: the mapping with its
// Join flags dropped.
func forkResult(res ForkJoinResult, ok bool, _ error) (ForkResult, bool) {
	return ForkResult{Mapping: res.Mapping.Fork(), Cost: res.Cost}, ok
}

// EnumerateFork invokes visit for every valid fork mapping: every set
// partition of the stages (root = item 0, leaf i = item i+1), every
// assignment of disjoint non-empty processor subsets to the blocks, and
// every legal mode combination. Exhaustive ground truth for small n and p.
// Each visited mapping is an independent copy the visitor may retain.
func EnumerateFork(f workflow.Fork, pl platform.Platform, allowDP bool, visit func(mapping.ForkMapping, mapping.Cost)) {
	newFJEnum(joinless(f), false, pl, allowDP, buildMaskInfo(pl)).runFrom(context.Background(), nil, 0, nil, func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
		visit(m.Clone().Fork(), c)
		return true
	})
}

// NewForkPrepared returns a prepared solver for the triple: the
// fork-join scan of the fork without a join. Its answers are fork-join
// mappings with no Join flag; mapping.ForkJoinMapping.Fork turns them
// into fork mappings.
func NewForkPrepared(f workflow.Fork, pl platform.Platform, allowDP bool) *ForkPrepared {
	return newPrepared(newFJEnum(joinless(f), false, pl, allowDP, buildMaskInfo(pl)))
}

// ForkPeriod returns a fork mapping minimizing the period.
func ForkPeriod(f workflow.Fork, pl platform.Platform, allowDP bool) (ForkResult, bool) {
	return forkResult(NewForkPrepared(f, pl, allowDP).Period(context.Background()))
}

// ForkLatency returns a fork mapping minimizing the latency.
func ForkLatency(f workflow.Fork, pl platform.Platform, allowDP bool) (ForkResult, bool) {
	return forkResult(NewForkPrepared(f, pl, allowDP).Latency(context.Background()))
}

// ForkLatencyUnderPeriod returns a fork mapping minimizing the latency
// among mappings whose period does not exceed maxPeriod.
func ForkLatencyUnderPeriod(f workflow.Fork, pl platform.Platform, allowDP bool, maxPeriod float64) (ForkResult, bool) {
	return forkResult(NewForkPrepared(f, pl, allowDP).LatencyUnderPeriod(context.Background(), maxPeriod))
}

// ForkPeriodUnderLatency returns a fork mapping minimizing the period among
// mappings whose latency does not exceed maxLatency.
func ForkPeriodUnderLatency(f workflow.Fork, pl platform.Platform, allowDP bool, maxLatency float64) (ForkResult, bool) {
	return forkResult(NewForkPrepared(f, pl, allowDP).PeriodUnderLatency(context.Background(), maxLatency))
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
