package spdecomp

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Prepared solves one irreducible SP instance repeatedly under varying
// goals: the topological order, predecessor lists and evaluation scratch
// of blockEval, the restricted-growth/assignment buffers of the
// exhaustive enumeration, the certified Bounds and the goal-independent
// heuristic candidate set all persist across solves; every Exhaustive
// call runs its search (repeated goals are answered by the engine's
// result cache). Results are bit-identical to the one-shot entry points,
// which wrap a prepared solver used once. Not safe for concurrent use.
type Prepared struct {
	g  workflow.SP
	pl platform.Platform

	periodLB  float64
	latencyLB float64

	par    int
	search blockSearch
}

// spMemo is one shard's best block mapping with its cost.
type spMemo struct {
	blocks []mapping.SPBlock
	c      mapping.Cost
}

// NewPrepared builds a prepared solver, validating the graph structure
// once (the same topological-order check the one-shot path performs).
func NewPrepared(g workflow.SP, pl platform.Platform) (*Prepared, error) {
	st, err := newBlockEval(g, pl)
	if err != nil {
		return nil, err
	}
	periodLB, latencyLB := Bounds(g, pl)
	return &Prepared{
		g: g, pl: pl,
		periodLB: periodLB, latencyLB: latencyLB,
		search: blockSearch{own: newScanner(st)},
	}, nil
}

// SetParallelism sets the worker count of subsequent Exhaustive calls;
// values below two scan the whole space inline. The shard-order fold
// keeps the answer bit-identical either way.
func (pp *Prepared) SetParallelism(workers int) { pp.par = workers }

// lowerBound returns the certified lower bound on the goal's minimized
// metric: once an incumbent reaches it no candidate can strictly improve
// (beyond the comparison tolerance), and ties resolve to the earlier
// candidate anyway, so enumeration past it cannot change the result.
func (pp *Prepared) lowerBound(goal Goal) float64 {
	if goal.MinimizeLatency {
		return pp.latencyLB
	}
	return pp.periodLB
}

// CloneBlocks deep-copies a block mapping, keeping nil nil, so cached
// mappings are never handed out as aliases.
func CloneBlocks(bs []mapping.SPBlock) []mapping.SPBlock {
	if bs == nil {
		return nil
	}
	out := make([]mapping.SPBlock, len(bs))
	for i, b := range bs {
		out[i] = mapping.SPBlock{Proc: b.Proc, Steps: append([]int(nil), b.Steps...)}
	}
	return out
}

// errStopEnum unwinds a shard's enumeration once its incumbent has
// reached the certified lower bound.
var errStopEnum = errors.New("spdecomp: enumeration reached the certified bound")

// Exhaustive is the exhaustive block search for the prepared instance:
// scratch persists across calls, the returned mapping is built fresh by
// the solve, and with SetParallelism >= 2 the partition space is sharded
// across workers (incumbent.PartitionShards with at most p blocks) with
// a shard-order fold.
func (pp *Prepared) Exhaustive(ctx context.Context, goal Goal) ([]mapping.SPBlock, mapping.Cost, bool, error) {
	bs := &pp.search
	bs.ctx, bs.goal, bs.lb = ctx, goal, pp.lowerBound(goal)
	bs.prefixes = incumbent.PartitionShards(len(pp.g.Steps), pp.pl.Processors(), pp.par)
	for len(bs.extra) < pp.par-1 {
		bs.extra = append(bs.extra, nil)
	}
	r, found, err := incumbent.Run[spMemo](pp.par, len(bs.prefixes), bs)
	bs.ctx = nil
	if err != nil {
		return nil, mapping.Cost{}, false, err
	}
	return r.blocks, r.c, found, nil
}

// blockSearch is the incumbent.Search of one Exhaustive solve: shards
// are restricted-growth prefixes of the step->block assignment. own is worker 0's scratch — the serial scan's — and
// extra[w-1] worker w's, built on first use; all are kept across solves.
type blockSearch struct {
	ctx      context.Context
	goal     Goal
	lb       float64
	prefixes []incumbent.Prefix
	own      scanner
	extra    []*scanner
}

func (bs *blockSearch) Scan(sh *incumbent.Shards, w, shard int) (spMemo, bool, error) {
	sc := &bs.own
	if w > 0 {
		if bs.extra[w-1] == nil {
			st, err := newBlockEval(bs.own.st.g, bs.own.st.pl)
			if err != nil {
				return spMemo{}, false, err
			}
			ws := newScanner(st)
			bs.extra[w-1] = &ws
		}
		sc = bs.extra[w-1]
	}
	return sc.scan(bs.ctx, bs.goal, bs.lb, bs.prefixes[shard], sh, shard)
}

func (bs *blockSearch) Better(a, b spMemo) bool { return bs.goal.Better(a.c, b.c) }

func (bs *blockSearch) Final(r spMemo) bool { return bs.goal.Value(r.c) <= bs.lb }

// scanner is one worker of the block search: its enumeration scratch
// and the state of the shard it is scanning.
type scanner struct {
	st        *blockEval
	assign    []int
	blockProc []int
	usedProc  []bool
	load      []float64 // per-block weight of the current partition
	cp        []float64 // per-step finish of cpBound's longest path
	// prune enables the cut of procs and its equal-speed skip (see
	// twinBelow); the unpruned scan (false) is the regression oracle of
	// the pruned one.
	prune bool
	// twins reports whether two processors share a speed: without, the
	// skip has nothing to find and is not tried.
	twins bool

	ctx  context.Context
	goal Goal
	// cpCut enables cpBound's latency bound at internal nodes: set
	// on pruned scans whose goal involves the latency.
	cpCut      bool
	lb         float64
	sh         *incumbent.Shards
	shard      int
	best       spMemo
	found      bool
	bound      float64
	partitions int
	poll       int
	// costed counts the mappings evaluate has costed over the scanner's
	// life: the host-independent work measure of the cut tests.
	costed int
}

func newScanner(st *blockEval) scanner {
	n := len(st.g.Steps)
	sc := scanner{st: st, assign: make([]int, n), blockProc: make([]int, n), usedProc: make([]bool, st.pl.Processors()),
		load: make([]float64, n), cp: make([]float64, n), prune: true}
	for q, s := range st.pl.Speeds {
		sc.twins = sc.twins || slices.Contains(st.pl.Speeds[:q], s)
	}
	return sc
}

// scan enumerates the restricted-growth partitions of the steps that
// extend prefix (at most p blocks), crossed with the injective
// block->processor assignments, and returns the goal-best feasible
// mapping under the serial install rule (strict improvement replaces,
// ties keep the earlier mapping). A candidate strictly worse than the
// best of any shard cannot win the fold and is skipped; an incumbent
// reaching the certified lower bound lb stops the shard and records it
// in sh. The processor assignment is a branch and bound: a partial
// assignment whose cost bound the install rule already rejects is not
// completed (see procs), so the result is the unpruned scan's.
func (sc *scanner) scan(ctx context.Context, goal Goal, lb float64, prefix incumbent.Prefix,
	sh *incumbent.Shards, shard int) (spMemo, bool, error) {
	sc.ctx, sc.goal, sc.lb, sc.sh, sc.shard = ctx, goal, lb, sh, shard
	sc.cpCut = sc.prune && (goal.MinimizeLatency || goal.LatencyCap > 0)
	sc.best, sc.found, sc.bound = spMemo{}, false, sh.Bound()
	sc.partitions, sc.poll = 0, pollEvery
	copy(sc.assign, prefix.Assign)
	costed := sc.costed
	err := sc.parts(len(prefix.Assign), prefix.Used)
	mappingsCosted.Add(int64(sc.costed - costed))
	// An unwind skips the resets on the recursion path: leave usedProc
	// clean for the next shard.
	clear(sc.usedProc)
	sc.ctx = nil
	if err != nil && err != errStopEnum {
		return spMemo{}, false, err
	}
	return sc.best, sc.found, nil
}

// parts assigns steps s.. to blocks (restricted growth, at most p
// blocks), polling the context every 64 complete partitions. Each
// complete partition's block weights are summed in topological order —
// costOf's summation — before its processors are assigned.
func (sc *scanner) parts(s, blocks int) error {
	if s == len(sc.assign) {
		if sc.partitions++; sc.partitions == 64 {
			sc.partitions = 0
			if err := sc.ctx.Err(); err != nil {
				return err
			}
		}
		clear(sc.load[:blocks])
		for _, v := range sc.st.topo {
			sc.load[sc.assign[v]] += sc.st.g.Steps[v].Weight
		}
		return sc.procs(0, blocks, 0)
	}
	limit := blocks
	if blocks < len(sc.usedProc) {
		limit = blocks + 1
	}
	for b := 0; b < limit; b++ {
		sc.assign[s] = b
		nb := blocks
		if b == blocks {
			nb = blocks + 1
		}
		if err := sc.parts(s+1, nb); err != nil {
			return err
		}
	}
	return nil
}

// busySlack shrinks a block's load over its speed into a lower bound on
// its processor's busy time in costOf's list schedule, which sums the
// steps' quotients one by one: the two roundings differ by a few ULPs
// per step, and 2^-40 covers thousands of steps, far beyond the
// exhaustive caps. A shrunk bound only cuts less.
const busySlack = 1 - 1.0/(1<<40)

// procs assigns distinct processors to blocks k.. and evaluates each
// complete mapping; period is the largest load over speed of blocks
// 0..k-1, costOf's operations, so it never exceeds the period of a
// completion. Each block's processor is busy for its load over its speed,
// so the shrunk period also bounds the latency; when the goal involves
// the latency, an internal node raises that bound to its critical path
// (see cpBound). Once the install rule rejects the partial cost it
// rejects every completion, and the subtree — or, with every block
// placed, the list schedule — is skipped. The shard state is polled
// here, per node.
func (sc *scanner) procs(k, blocks int, period float64) error {
	if sc.poll--; sc.poll == 0 {
		sc.poll = pollEvery
		if sc.sh.Decided(sc.shard) {
			return errStopEnum
		}
		sc.bound = min(sc.bound, sc.sh.Bound())
	}
	if sc.prune && sc.rejects(mapping.Cost{Period: period, Latency: period * busySlack}) {
		return nil
	}
	if sc.cpCut && 0 < k && k < blocks && sc.rejects(mapping.Cost{Period: period, Latency: sc.cpBound(k, period)}) {
		return nil
	}
	if k == blocks {
		return sc.evaluate()
	}
	for q := range sc.usedProc {
		if sc.usedProc[q] || sc.prune && sc.twins && sc.twinBelow(q) {
			continue
		}
		sc.usedProc[q] = true
		sc.blockProc[k] = q
		if err := sc.procs(k+1, blocks, max(period, sc.load[k]/sc.st.pl.Speeds[q])); err != nil {
			return err
		}
		sc.usedProc[q] = false
	}
	return nil
}

// cpBound returns a lower bound on the latency of every completion of
// the current partition with blocks 0..k-1 placed and partial period
// period: the larger of the period and the longest path, shrunk by
// busySlack. On that path each step runs for its weight over its block's
// processor speed or, unplaced, over the fastest unused speed, and
// starts when its predecessors finish. A completion gives an unplaced
// block an unused processor, no faster than that, and costOf starts each
// step no earlier than its predecessors' finish, adding the same
// quotients in the same order; rounding is monotone, so the path never
// exceeds the latency (the period needs the slack, see busySlack).
func (sc *scanner) cpBound(k int, period float64) float64 {
	st := sc.st
	free := 0.0
	for q, used := range sc.usedProc {
		if !used {
			free = max(free, st.pl.Speeds[q])
		}
	}
	cp := period
	for _, v := range st.topo {
		start := 0.0
		for _, u := range st.preds[v] {
			start = max(start, sc.cp[u])
		}
		speed := free
		if b := sc.assign[v]; b < k {
			speed = st.pl.Speeds[sc.blockProc[b]]
		}
		sc.cp[v] = start + st.g.Steps[v].Weight/speed
		cp = max(cp, sc.cp[v])
	}
	return cp * busySlack
}

// twinBelow reports whether an unused processor of lower index than q
// has q's speed. A processor enters costOf only through its speed, so
// swapping the two maps the subtree of q onto the subtree of that
// processor, which procs tried earlier, cost for cost: every mapping of
// q's subtree ties an earlier one and cannot install. Each block thus
// tries only the lowest-index unused processor of every speed.
func (sc *scanner) twinBelow(q int) bool {
	speeds := sc.st.pl.Speeds
	for r := range q {
		if !sc.usedProc[r] && speeds[r] == speeds[q] {
			return true
		}
	}
	return false
}

// rejects is the install rule's test: a mapping of cost c is turned
// down when it breaks a cap, when it does not strictly improve the
// shard's best, or when it is strictly worse than the best of any
// shard. Every clause is monotone in c, so a rejected lower bound proves
// every completion is rejected too.
func (sc *scanner) rejects(c mapping.Cost) bool {
	return !sc.goal.Feasible(c) || sc.found && !sc.goal.Better(c, sc.best.c) || numeric.Greater(sc.goal.Value(c), sc.bound)
}

// evaluate costs the current mapping and installs it under the serial
// rule.
func (sc *scanner) evaluate() error {
	st := sc.st
	for s, b := range sc.assign {
		st.procOf[s] = sc.blockProc[b]
	}
	sc.costed++
	c := st.costOf()
	if sc.rejects(c) {
		return nil
	}
	sc.best, sc.found = spMemo{blocks: st.blocks(), c: c}, true
	v := sc.goal.Value(c)
	sc.bound = min(sc.bound, v)
	sc.sh.Tighten(v)
	if v <= sc.lb {
		sc.sh.ReachedLB(sc.shard)
		return errStopEnum
	}
	return nil
}

// mappingsCosted counts the mappings every block scan of the process has
// costed (see MappingsCosted).
var mappingsCosted atomic.Int64

// MappingsCosted returns how many mappings the SP block scans of this
// process have costed. Tests and benchmarks read it around a solve or a
// sweep to pin the work of the scan's cuts, which wall-clock time cannot.
func MappingsCosted() int64 { return mappingsCosted.Load() }

// pollEvery is how many search nodes pass between polls of the shared
// shard state; a stale bound only prunes less.
const pollEvery = 64

// Exhaustive enumerates every partition of the steps into blocks on
// distinct processors (restricted-growth set partitions crossed with
// injective processor assignments) and returns the best feasible
// mapping. ok is false when the caps admit no mapping. The enumeration
// order is deterministic, so ties resolve identically across runs.
func Exhaustive(ctx context.Context, g workflow.SP, pl platform.Platform, goal Goal) ([]mapping.SPBlock, mapping.Cost, bool, error) {
	pp, err := NewPrepared(g, pl)
	if err != nil {
		return nil, mapping.Cost{}, false, err
	}
	return pp.Exhaustive(ctx, goal)
}
