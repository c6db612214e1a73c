package exhaustive

// Partition scans: the fork and fork-join searches enumerate set
// partitions of the stages (restricted-growth strings) and, per
// partition, disjoint processor subsets and modes, block by block. One
// scan body serves both kinds and every worker count: shardScan applies
// the incumbent rule to the completions of one restricted-growth prefix,
// and incumbent.Run drives it — inline over the empty prefix (the whole
// space) for one worker, or over the prefixes of
// incumbent.PartitionShards, which tile the serial enumeration order,
// with a shard-order fold for several.
//
// The scan is a branch and bound: the enumerators carry the partial
// cost of the blocks assigned so far, built with exactly the operations
// of the complete cost (max, correctly rounded + and /, all monotone),
// so it never exceeds the cost of a completion, bit for bit. At every
// internal node they raise it by a look-ahead bound on the blocks not
// yet placed — their weight over the speed of the free processors,
// shrunk by aheadSlack — which no completion undercuts either. The
// install rule's test, applied to the raised cost, drops a subtree only
// when the rule would reject every mapping in it; the enumeration order
// is unchanged, so results are the unpruned scan's at every worker
// count.

import (
	"context"
	"math"

	"repliflow/internal/anytime"
	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
)

// aheadSlack shrinks a look-ahead bound (forkPartial.ahead,
// fjPartial.ahead) into a true lower bound. Over the blocks still to
// place, the sum of their weights over the sum of the free speeds is at
// most the largest block's weight over its own speed sum (a mediant),
// and hence at most its period and its delay; but the bound sums weights
// and speeds in another order than the complete cost divides them, and
// the fork-join bound adds one quotient to rootDone where the complete
// cost may add two (a leaf's delay, then the join's). Those roundings
// differ by a few ULPs per term, and 2^-40 covers thousands of terms,
// far beyond the exhaustive caps. A shrunk bound only cuts less.
const aheadSlack = 1 - 1.0/(1<<40)

// weighRest fills the suffix sums of the first nblocks block weights of
// w — w[:p] holds the weights, w[p:] (p+1 entries) the sums — and
// returns them: rem[b] is the weight of blocks b..nblocks-1.
func weighRest(w []float64, nblocks int) []float64 {
	p := len(w) / 2
	rem := w[p : p+nblocks+1]
	rem[nblocks] = 0
	for b := nblocks - 1; b >= 0; b-- {
		rem[b] = w[b] + rem[b+1]
	}
	return rem
}

// Result is an optimal mapping together with its exact cost.
type Result[M any] struct {
	Mapping M
	Cost    mapping.Cost
}

// enumerator is what the partition scan needs from forkEnum and fjEnum.
type enumerator[M any] interface {
	// runFrom visits every mapping whose partition extends the prefix,
	// in enumeration order, until visit returns false or ctx is
	// cancelled. The visited mapping aliases the enumerator's scratch.
	// After each block's processors and mode are chosen, cut sees the
	// partial cost of the blocks assigned so far — accumulated with the
	// operations of the complete cost and, while blocks remain, raised
	// by the look-ahead bound, so it never exceeds the cost of any
	// completion in either field — and a true answer skips every
	// completion. A nil cut visits every mapping.
	runFrom(ctx context.Context, prefix []int, used int, cut func(mapping.Cost) bool, visit func(M, mapping.Cost) bool)
	// err is the cancellation latched by the last run.
	err() error
	// retain deep-copies a visited mapping so it can outlive the run.
	retain(M) M
	// fresh returns a new enumerator over the same instance, for
	// another worker: the scratch is single-owner, the platform table
	// is shared read-only.
	fresh() enumerator[M]
	// lowerBound is the anytime lower bound of the spec's objective.
	lowerBound(spec anytime.Spec) float64
}

// pollEvery is how many cut tests pass between polls of the shared
// shard state: often enough that a tighter bound or a decided fold
// lands within microseconds, rarely enough that the atomic loads vanish
// from the per-node cost.
const pollEvery = 64

// shardScan is one worker's scan: its enumerator, the solve's admission
// rule, and the incumbent of the shard being scanned. visit and cut are
// built once per worker and read the state through one captured
// pointer, so the per-node path is one indirect call that loads only
// the fields it touches, and a solve allocates no closure.
type shardScan[M any] struct {
	e         enumerator[M]
	visit     func(M, mapping.Cost) bool
	cut       func(mapping.Cost) bool
	accept    func(mapping.Cost) bool
	objective func(mapping.Cost) float64
	lb        float64

	sh      *incumbent.Shards
	shard   int
	best    Result[M]
	bestObj float64
	bound   float64
	found   bool
	decided bool
	poll    int
}

// init makes st a worker scan over e and returns it. Its visitor keeps
// the best mapping accept admits under objective, with the serial
// install rule: strict improvement replaces, ties keep the earlier
// mapping. lb is the anytime lower bound on the objective (<= 0
// disables it): once the incumbent reaches it no later mapping can
// strictly improve, so the shard records it in sh and stops. A
// candidate strictly worse than the best of any shard cannot win the
// fold and is skipped. Its cut drops a partial mapping the install rule
// already rejects, and polls the shard state: once the shard is
// decided, it drops everything.
func (st *shardScan[M]) init(e enumerator[M]) *shardScan[M] {
	st.e = e
	st.visit = func(m M, c mapping.Cost) bool {
		if st.rejects(c) {
			return true
		}
		obj := st.objective(c)
		st.best = Result[M]{Mapping: st.e.retain(m), Cost: c}
		st.bestObj, st.found = obj, true
		st.bound = min(st.bound, obj)
		st.sh.Tighten(obj)
		if st.lb > 0 && numeric.LessEq(obj, st.lb) {
			st.sh.ReachedLB(st.shard)
			return false
		}
		return true
	}
	st.cut = func(c mapping.Cost) bool {
		if st.poll--; st.poll == 0 {
			st.poll = pollEvery
			st.decided = st.sh.Decided(st.shard)
			st.bound = min(st.bound, st.sh.Bound())
		}
		return st.decided || st.rejects(c)
	}
	return st
}

// rejects is the install rule's test: a mapping of cost c is turned
// down when accept refuses it, when it does not strictly improve the
// shard's best, or when it is strictly worse than the best of any
// shard. Every clause is monotone in c (the tolerant comparisons
// included), so a partial cost that is rejected proves every
// completion is rejected too: the cut and the visitor share one rule
// and cannot drift apart.
func (st *shardScan[M]) rejects(c mapping.Cost) bool {
	if !st.accept(c) {
		return true
	}
	obj := st.objective(c)
	return st.found && !numeric.Less(obj, st.bestObj) || numeric.Greater(obj, st.bound)
}

// scan returns the best mapping of one shard, the completions of prefix.
func (st *shardScan[M]) scan(ctx context.Context, prefix incumbent.Prefix, sh *incumbent.Shards, shard int) (Result[M], bool, error) {
	st.sh, st.shard = sh, shard
	st.best, st.bestObj, st.found = Result[M]{}, 0, false
	st.bound, st.decided, st.poll = sh.Bound(), false, pollEvery
	st.e.runFrom(ctx, prefix.Assign, prefix.Used, st.cut, st.visit)
	best := st.best
	st.best = Result[M]{}
	if err := st.e.err(); err != nil {
		return Result[M]{}, false, err
	}
	return best, st.found, nil
}

func acceptAll(mapping.Cost) bool    { return true }
func period(c mapping.Cost) float64  { return c.Period }
func latency(c mapping.Cost) float64 { return c.Latency }

// partitionSearch is the incumbent.Search of one bounded scan: shards
// are the restricted-growth prefixes of incumbent.PartitionShards. own is
// worker 0's scan — the serial scan — and extra[w-1] worker w's, built on
// first use; all are kept across solves.
type partitionSearch[M any] struct {
	ctx       context.Context
	accept    func(mapping.Cost) bool
	objective func(mapping.Cost) float64
	lb        float64
	prefixes  []incumbent.Prefix
	own       shardScan[M]
	extra     []*shardScan[M]
}

func (ps *partitionSearch[M]) Scan(sh *incumbent.Shards, w, shard int) (Result[M], bool, error) {
	st := &ps.own
	if w > 0 {
		if ps.extra[w-1] == nil {
			ps.extra[w-1] = new(shardScan[M]).init(ps.own.e.fresh())
		}
		st = ps.extra[w-1]
	}
	st.accept, st.objective, st.lb = ps.accept, ps.objective, ps.lb
	return st.scan(ps.ctx, ps.prefixes[shard], sh, shard)
}

func (ps *partitionSearch[M]) Better(a, b Result[M]) bool {
	return numeric.Less(ps.objective(a.Cost), ps.objective(b.Cost))
}

func (ps *partitionSearch[M]) Final(r Result[M]) bool {
	return ps.lb > 0 && numeric.LessEq(ps.objective(r.Cost), ps.lb)
}

// scanPrepared solves repeated objective/bound variants of one
// (graph, platform, model) triple by partition scans: enumeration
// scratch is shared across solves and the anytime lower bounds are
// computed once per objective; every solve runs its scan (repeated
// bounds are answered by the engine's result cache). Not safe for
// concurrent use: parallelism fans out inside one solve.
type scanPrepared[M any] struct {
	search  partitionSearch[M]
	items   int // partition items
	procs   int
	allowDP bool
	par     int
	lbs     [2]float64
	hasLB   [2]bool
}

// ForkPrepared solves repeated objective/bound variants of one
// (fork, platform, model) triple. The one-shot package functions wrap a
// prepared solver used once.
type ForkPrepared = scanPrepared[mapping.ForkMapping]

// ForkJoinPrepared is the fork-join analogue of ForkPrepared.
type ForkJoinPrepared = scanPrepared[mapping.ForkJoinMapping]

// ForkResult is an optimal fork mapping with its exact cost.
type ForkResult = Result[mapping.ForkMapping]

// ForkJoinResult is an optimal fork-join mapping with its exact cost.
type ForkJoinResult = Result[mapping.ForkJoinMapping]

func newScanPrepared[M any](e enumerator[M], items, procs int, allowDP bool) *scanPrepared[M] {
	sp := &scanPrepared[M]{items: items, procs: procs, allowDP: allowDP}
	sp.search.own.init(e)
	return sp
}

// SetParallelism sets the worker count of subsequent solves: counts
// above 1 split the partition space into shards claimed by that many
// workers; anything else scans the whole space inline.
func (sp *scanPrepared[M]) SetParallelism(workers int) {
	sp.par = workers
}

// scan runs one bounded scan through incumbent.Run.
func (sp *scanPrepared[M]) scan(ctx context.Context,
	accept func(mapping.Cost) bool, objective func(mapping.Cost) float64, lb float64) (Result[M], bool, error) {
	ps := &sp.search
	ps.ctx, ps.accept, ps.objective, ps.lb = ctx, accept, objective, lb
	ps.prefixes = incumbent.PartitionShards(sp.items, sp.procs, sp.par)
	for len(ps.extra) < sp.par-1 {
		ps.extra = append(ps.extra, nil)
	}
	res, ok, err := incumbent.Run[Result[M]](sp.par, len(ps.prefixes), ps)
	ps.ctx, ps.accept = nil, nil
	return res, ok, err
}

// Solve minimizes the period (minimizePeriod) or the latency subject to
// a bound on the other metric; +Inf is unbounded. The returned mapping
// is the scan's own retained copy, which the caller owns.
func (sp *scanPrepared[M]) Solve(ctx context.Context, minimizePeriod bool, bound float64) (Result[M], bool, error) {
	i := 0
	if minimizePeriod {
		i = 1
	}
	objective, accept := latency, acceptAll
	if minimizePeriod {
		objective = period
	}
	// The bound test reads the field directly: accept runs on every
	// mapping of a bounded scan.
	switch {
	case math.IsInf(bound, 1):
	case minimizePeriod:
		accept = func(c mapping.Cost) bool { return numeric.LessEq(c.Latency, bound) }
	default:
		accept = func(c mapping.Cost) bool { return numeric.LessEq(c.Period, bound) }
	}
	if !sp.hasLB[i] {
		spec := anytime.Spec{MinimizePeriod: minimizePeriod, AllowDP: sp.allowDP}
		sp.lbs[i], sp.hasLB[i] = sp.search.own.e.lowerBound(spec), true
	}
	return sp.scan(ctx, accept, objective, sp.lbs[i])
}

// Front returns the exact Pareto front of (period, latency), by
// increasing period and decreasing latency, from one bi-criteria pass:
// a serial scan of the whole space that keeps the non-dominated costs
// of the mappings it visits (incumbent.Insert: the scan meets them out
// of period order) and cuts a partial mapping once a point of the list
// weakly dominates its raised cost. That cost is a lower bound on every
// completion in both fields and incumbent.Leq is monotone, so every
// completion of a cut node is weakly dominated too, and would have left
// the list unchanged. A pass cut short by ctx returns ctx's error and
// keeps nothing.
func (sp *scanPrepared[M]) Front(ctx context.Context) ([]mapping.Cost, error) {
	var list []incumbent.Point
	e := sp.search.own.e
	e.runFrom(ctx, nil, 0,
		func(c mapping.Cost) bool { return incumbent.Dominated(list, c.Period, c.Latency) },
		func(_ M, c mapping.Cost) bool {
			list = incumbent.Insert(list, incumbent.Point{Period: c.Period, Latency: c.Latency})
			return true
		})
	if err := e.err(); err != nil {
		return nil, err
	}
	front := make([]mapping.Cost, len(list))
	for k, pt := range list {
		front[k] = mapping.Cost{Period: pt.Period, Latency: pt.Latency}
	}
	return front, nil
}

// Period solves MinPeriod.
func (sp *scanPrepared[M]) Period(ctx context.Context) (Result[M], bool, error) {
	return sp.Solve(ctx, true, math.Inf(1))
}

// Latency solves MinLatency.
func (sp *scanPrepared[M]) Latency(ctx context.Context) (Result[M], bool, error) {
	return sp.Solve(ctx, false, math.Inf(1))
}

// LatencyUnderPeriod minimizes the latency among mappings whose period
// does not exceed maxPeriod.
func (sp *scanPrepared[M]) LatencyUnderPeriod(ctx context.Context, maxPeriod float64) (Result[M], bool, error) {
	return sp.Solve(ctx, false, maxPeriod)
}

// PeriodUnderLatency minimizes the period among mappings whose latency
// does not exceed maxLatency.
func (sp *scanPrepared[M]) PeriodUnderLatency(ctx context.Context, maxLatency float64) (Result[M], bool, error) {
	return sp.Solve(ctx, true, maxLatency)
}
