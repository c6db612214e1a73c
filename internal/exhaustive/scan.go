package exhaustive

// Partition scans: the fork and fork-join searches enumerate set
// partitions of the stages (restricted-growth strings) and, per
// partition, disjoint processor subsets and modes, block by block. A
// fork is a fork-join without a join (Section 6.3), so one enumerator
// (fjEnum) and one scan body serve both kinds, and every worker count:
// shardScan applies the incumbent rule to the completions of one
// restricted-growth prefix, and incumbent.Run drives it — inline over
// the empty prefix (the whole space) for one worker, or over the
// prefixes of incumbent.PartitionShards, which tile the serial
// enumeration order, with a shard-order fold for several.
//
// The scan is a branch and bound: the enumerator carries the partial
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

// aheadSlack shrinks a look-ahead bound (fjPartial.ahead) into a true
// lower bound. Over the blocks still to place, the sum of their weights
// over the sum of the free speeds is at most the largest block's weight
// over its own speed sum (a mediant), and hence at most its period and
// its delay; but the bound sums weights and speeds in another order
// than the complete cost divides them, and it adds one quotient to
// rootDone where the complete cost may add two (a leaf's delay, then
// the join's). Those roundings differ by a few ULPs per term, and
// 2^-40 covers thousands of terms, far beyond the exhaustive caps. A
// shrunk bound only cuts less.
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
type shardScan struct {
	e         *fjEnum
	visit     func(mapping.ForkJoinMapping, mapping.Cost) bool
	cut       func(mapping.Cost) bool
	accept    func(mapping.Cost) bool
	objective func(mapping.Cost) float64
	lb        float64
	// seed is the optimum a completed front pass proved, +Inf for none:
	// the shard's starting bound.
	seed float64

	sh      *incumbent.Shards
	shard   int
	best    ForkJoinResult
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
func (st *shardScan) init(e *fjEnum) *shardScan {
	st.e, st.seed = e, numeric.Inf
	st.visit = func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
		if st.rejects(c) {
			return true
		}
		obj := st.objective(c)
		st.best = ForkJoinResult{Mapping: m.Clone(), Cost: c}
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
func (st *shardScan) rejects(c mapping.Cost) bool {
	if !st.accept(c) {
		return true
	}
	obj := st.objective(c)
	return st.found && !numeric.Less(obj, st.bestObj) || numeric.Greater(obj, st.bound)
}

// scan returns the best mapping of one shard, the completions of prefix.
// The shard's bound starts at the seed or the best of any shard,
// whichever is smaller.
func (st *shardScan) scan(ctx context.Context, prefix incumbent.Prefix, sh *incumbent.Shards, shard int) (ForkJoinResult, bool, error) {
	st.sh, st.shard = sh, shard
	st.best, st.bestObj, st.found = ForkJoinResult{}, 0, false
	st.bound, st.decided, st.poll = min(sh.Bound(), st.seed), false, pollEvery
	st.e.runFrom(ctx, prefix.Assign, prefix.Used, st.cut, st.visit)
	best := st.best
	st.best = ForkJoinResult{}
	if err := st.e.step.err; err != nil {
		return ForkJoinResult{}, false, err
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
type partitionSearch struct {
	ctx       context.Context
	accept    func(mapping.Cost) bool
	objective func(mapping.Cost) float64
	lb        float64
	seed      float64
	prefixes  []incumbent.Prefix
	own       shardScan
	extra     []*shardScan
}

func (ps *partitionSearch) Scan(sh *incumbent.Shards, w, shard int) (ForkJoinResult, bool, error) {
	st := &ps.own
	if w > 0 {
		if ps.extra[w-1] == nil {
			ps.extra[w-1] = new(shardScan).init(ps.own.e.fresh())
		}
		st = ps.extra[w-1]
	}
	st.accept, st.objective, st.lb, st.seed = ps.accept, ps.objective, ps.lb, ps.seed
	return st.scan(ps.ctx, ps.prefixes[shard], sh, shard)
}

func (ps *partitionSearch) Better(a, b ForkJoinResult) bool {
	return numeric.Less(ps.objective(a.Cost), ps.objective(b.Cost))
}

func (ps *partitionSearch) Final(r ForkJoinResult) bool {
	return ps.lb > 0 && numeric.LessEq(ps.objective(r.Cost), ps.lb)
}

// ForkJoinPrepared solves repeated objective/bound variants of one
// (fork-join, platform, model) triple by partition scans: enumeration
// scratch is shared across solves and the anytime lower bounds are
// computed once per objective; every solve runs its scan (repeated
// bounds are answered by the engine's result cache). Once a front pass
// has completed, a solve starts from the optimum the pass's list proves
// (see Solve). Not safe for concurrent use: parallelism fans out inside
// one solve. The one-shot package functions wrap a prepared solver used
// once.
type ForkJoinPrepared struct {
	search partitionSearch
	par    int
	lbs    [2]float64
	hasLB  [2]bool
	// front is the Pareto list of the last front pass, nil when none has
	// run or the last one was cut short.
	front []incumbent.Point
}

// ForkPrepared solves repeated objective/bound variants of one
// (fork, platform, model) triple, as a fork-join without a join (see
// NewForkPrepared).
type ForkPrepared = ForkJoinPrepared

// ForkResult is an optimal fork mapping with its exact cost.
type ForkResult = Result[mapping.ForkMapping]

// ForkJoinResult is an optimal fork-join mapping with its exact cost.
type ForkJoinResult = Result[mapping.ForkJoinMapping]

func newPrepared(e *fjEnum) *ForkJoinPrepared {
	sp := new(ForkJoinPrepared)
	sp.search.own.init(e)
	return sp
}

// SetParallelism sets the worker count of subsequent solves: counts
// above 1 split the partition space into shards claimed by that many
// workers; anything else scans the whole space inline.
func (sp *ForkJoinPrepared) SetParallelism(workers int) {
	sp.par = workers
}

// scan runs one bounded scan through incumbent.Run.
func (sp *ForkJoinPrepared) scan(ctx context.Context,
	accept func(mapping.Cost) bool, objective func(mapping.Cost) float64, lb, seed float64) (ForkJoinResult, bool, error) {
	ps := &sp.search
	ps.ctx, ps.accept, ps.objective, ps.lb, ps.seed = ctx, accept, objective, lb, seed
	e := ps.own.e
	ps.prefixes = incumbent.PartitionShards(e.items(), e.pl.Processors(), sp.par)
	for len(ps.extra) < sp.par-1 {
		ps.extra = append(ps.extra, nil)
	}
	res, ok, err := incumbent.Run[ForkJoinResult](sp.par, len(ps.prefixes), ps)
	ps.ctx, ps.accept = nil, nil
	return res, ok, err
}

// Solve minimizes the period (minimizePeriod) or the latency subject to
// a bound on the other metric; +Inf is unbounded. The returned mapping
// is the scan's own retained copy, which the caller owns.
//
// After a completed front pass the solve's optimum is known
// (incumbent.Optimum on the pass's list). It is the scan's early-stop
// lower bound, when larger than the anytime one, and every shard's
// starting bound, so the scan cuts every mapping strictly worse than it
// and stops at the first one that reaches it. The scan order and the
// install rule are unchanged, and the unseeded scan keeps that same
// mapping: no later one strictly improves on the optimum, and the
// mappings it cuts are strictly worse than the one it keeps. The result
// is the unseeded scan's, byte for byte.
func (sp *ForkJoinPrepared) Solve(ctx context.Context, minimizePeriod bool, bound float64) (ForkJoinResult, bool, error) {
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
		e := sp.search.own.e
		spec := anytime.Spec{MinimizePeriod: minimizePeriod, AllowDP: e.allowDP}
		sp.lbs[i], sp.hasLB[i] = anytime.ForkJoinLB(e.fj, e.pl, spec), true
	}
	lb, seed := sp.lbs[i], numeric.Inf
	if v, ok := incumbent.Optimum(sp.front, minimizePeriod, bound); ok {
		lb, seed = max(lb, v), v
	}
	return sp.scan(ctx, accept, objective, lb, seed)
}

// Front returns the exact Pareto front of (period, latency), by
// increasing period and decreasing latency, from one bi-criteria pass:
// a serial scan of the whole space that keeps the non-dominated costs
// of the mappings it visits (incumbent.Insert: the scan meets them out
// of period order) and cuts a partial mapping once a point of the list
// weakly dominates its raised cost. That cost is a lower bound on every
// completion in both fields and incumbent.Leq is monotone, so every
// completion of a cut node is weakly dominated too, and would have left
// the list unchanged. A completed pass keeps its list to seed the
// bounded solves that follow (see Solve); a pass cut short by ctx
// returns ctx's error and keeps nothing.
func (sp *ForkJoinPrepared) Front(ctx context.Context) ([]mapping.Cost, error) {
	var list []incumbent.Point
	sp.front = nil
	e := sp.search.own.e
	e.runFrom(ctx, nil, 0,
		func(c mapping.Cost) bool { return incumbent.Dominated(list, c.Period, c.Latency) },
		func(_ mapping.ForkJoinMapping, c mapping.Cost) bool {
			list = incumbent.Insert(list, incumbent.Point{Period: c.Period, Latency: c.Latency})
			return true
		})
	if err := e.step.err; err != nil {
		return nil, err
	}
	sp.front = list
	front := make([]mapping.Cost, len(list))
	for k, pt := range list {
		front[k] = mapping.Cost{Period: pt.Period, Latency: pt.Latency}
	}
	return front, nil
}

// Period solves MinPeriod.
func (sp *ForkJoinPrepared) Period(ctx context.Context) (ForkJoinResult, bool, error) {
	return sp.Solve(ctx, true, math.Inf(1))
}

// Latency solves MinLatency.
func (sp *ForkJoinPrepared) Latency(ctx context.Context) (ForkJoinResult, bool, error) {
	return sp.Solve(ctx, false, math.Inf(1))
}

// LatencyUnderPeriod minimizes the latency among mappings whose period
// does not exceed maxPeriod.
func (sp *ForkJoinPrepared) LatencyUnderPeriod(ctx context.Context, maxPeriod float64) (ForkJoinResult, bool, error) {
	return sp.Solve(ctx, false, maxPeriod)
}

// PeriodUnderLatency minimizes the period among mappings whose latency
// does not exceed maxLatency.
func (sp *ForkJoinPrepared) PeriodUnderLatency(ctx context.Context, maxLatency float64) (ForkJoinResult, bool, error) {
	return sp.Solve(ctx, true, maxLatency)
}
