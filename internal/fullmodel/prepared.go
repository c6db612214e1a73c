package fullmodel

import (
	"context"

	"repliflow/internal/incumbent"
	"repliflow/internal/numeric"
)

// Prepared solvers for the communication-aware model. Pareto sweeps and
// bi-criteria binary searches solve the same (graph, platform, bandwidth)
// triple hundreds of times, varying only the bound. The prepared solvers
// — PipelinePrepared, ForkPrepared — share everything that does not
// depend on the bound: speed reciprocals for prune-side lower bounds
// (built once per solver and shared read-only with its shard workers;
// reciprocals never enter reported costs, which always divide), an
// interval work table, the homogeneous DP tables and candidate-period
// set, and the enumeration scratch. They keep no per-goal results: every
// solve runs its search, and repeated goals are answered by the engine's
// result cache. Reuse never changes a result: a solve on a used solver
// returns the bits a fresh one would.

// lbSlack scales multiply-by-reciprocal lower bounds: w*(1/s) carries at
// most a couple of ULPs of relative rounding error against w/s, so
// shrinking the product by four ULPs keeps it a true lower bound on the
// division the reported costs use.
const lbSlack = 1 - 1.0/(1<<50)

// aheadSlack shrinks the interval scan's look-ahead latency bound into a
// true lower bound: the bound sums reciprocal products in another order
// than the cost sums its divisions, a few ULPs per term, and 2^-40
// covers thousands of terms.
const aheadSlack = 1 - 1.0/(1<<40)

// surelyGreater reports whether every value v >= a satisfies
// numeric.Greater(v, b): a clears b by more than the relative comparison
// tolerance.
// Prune-side lower bounds use this instead of numeric.Greater so they
// can never cut a candidate the tolerant comparison would keep.
func surelyGreater(a, b float64) bool {
	return a*(1-numeric.Eps) > b
}

// pipeResult is one comm-pipeline solve: a shard's best mapping, which
// the install copies out of the scan's scratch.
type pipeResult struct {
	m  Mapping
	c  Cost
	ok bool
}

// PipelinePrepared solves one comm-aware pipeline instance repeatedly
// under varying goals. Not safe for concurrent use; the engine's sweep
// pool hands each solver to one goroutine at a time.
type PipelinePrepared struct {
	p   Pipeline
	pl  Platform
	inv []float64
	hom bool
	n   int
	par int

	// workTbl[i][j] is IntervalWork(i, j), built by the same sequential
	// summation, so table lookups are bit-identical to the direct sums.
	workTbl [][]float64

	// Homogeneous DP machinery, allocated on first hom solve and reused
	// across bounds.
	L        [][]float64
	cut      [][]int
	homCands []float64

	// The heterogeneous exhaustive scan, kept across solves.
	search intervalSearch
	// front is the Pareto list of the last front pass, nil when none has
	// run or the last one was cut short.
	front []incumbent.Point
}

// NewPipelinePrepared validates the instance once and builds a prepared
// solver for it.
func NewPipelinePrepared(p Pipeline, pl Platform) (*PipelinePrepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	inv := make([]float64, pl.Processors())
	for i, s := range pl.Speeds {
		inv[i] = 1 / s
	}
	n := p.Stages()
	wt := make([][]float64, n)
	for i := 0; i < n; i++ {
		wt[i] = make([]float64, n)
		var s float64
		for j := i; j < n; j++ {
			s += p.Weights[j]
			wt[i][j] = s
		}
	}
	pp := &PipelinePrepared{
		p: p, pl: pl, inv: inv,
		hom: pl.IsFullyHomogeneous(), n: n,
		workTbl: wt,
	}
	pp.search.own.pp = pp
	return pp, nil
}

// SetParallelism sets the worker count of subsequent SolveExact calls;
// values below two scan the whole space inline. The shard-order fold
// keeps the answer bit-identical either way.
func (pp *PipelinePrepared) SetParallelism(workers int) { pp.par = workers }

func cloneMapping(m Mapping) Mapping {
	if m.Bounds == nil {
		return Mapping{}
	}
	return Mapping{
		Bounds: append([]int(nil), m.Bounds...),
		Alloc:  append([]int(nil), m.Alloc...),
	}
}

// SolveHom optimizes the pipeline on a fully homogeneous platform for
// any of the four objectives, via the Subhlok-Vondran style dynamic
// programs: the latency-under-period DP directly, and binary search over
// the finite candidate period set for the period objectives. ok is false
// when a cap is infeasible. The DP tables and the candidate-period set
// persist across calls, and each solve builds its mapping afresh
// (homLUPInto).
func (pp *PipelinePrepared) SolveHom(goal Goal) (Mapping, Cost, bool, error) {
	if !pp.hom {
		return Mapping{}, Cost{}, false, errPlatformNotHomogeneous
	}
	m, c, ok := pp.solveHom(goal)
	return m, c, ok, nil
}

// lup runs the latency-under-period DP in the reused tables. homLUPInto
// resets them first, so reuse cannot change a bit of the result.
func (pp *PipelinePrepared) lup(maxPeriod float64) (Mapping, Cost, bool) {
	if pp.L == nil {
		pp.L, pp.cut = newHomDP(pp.n, pp.pl.Processors())
	}
	m, ok := homLUPInto(pp.p, pp.pl.Speeds[0], pp.pl.InBand[0], pp.n, pp.pl.Processors(), pp.L, pp.cut, maxPeriod)
	if !ok {
		return Mapping{}, Cost{}, false
	}
	return m, evalTrusted(pp.p, pp.pl, m), true
}

func (pp *PipelinePrepared) solveHom(goal Goal) (Mapping, Cost, bool) {
	if !goalNeedsPeriodSearch(goal) {
		cap := numeric.Inf
		if goal.PeriodCap > 0 {
			cap = goal.PeriodCap
		}
		m, c, ok := pp.lup(cap)
		if !ok {
			return Mapping{}, Cost{}, false
		}
		if goal.LatencyCap > 0 && numeric.Greater(c.Latency, goal.LatencyCap) {
			return Mapping{}, Cost{}, false
		}
		return m, c, true
	}
	// Minimize the period: binary search the candidate brackets, sharing
	// the candidate set across every goal that needs the search.
	if pp.homCands == nil {
		pp.homCands = homPeriodCandidates(pp.p, pp.pl.Speeds[0], pp.pl.InBand[0])
	}
	cands := pp.homCands
	lo, hi := 0, len(cands)-1
	var bestM Mapping
	var bestC Cost
	found := false
	for lo <= hi {
		mid := (lo + hi) / 2
		m, c, ok := pp.lup(cands[mid])
		if ok && goal.LatencyCap > 0 && numeric.Greater(c.Latency, goal.LatencyCap) {
			ok = false
		}
		if ok {
			bestM, bestC = m, c
			found = true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if !found {
		return Mapping{}, Cost{}, false
	}
	if goal.PeriodCap > 0 && numeric.Greater(bestC.Period, goal.PeriodCap) {
		return Mapping{}, Cost{}, false
	}
	return bestM, bestC, true
}

// SolveExact is the exhaustive heterogeneous solve for the prepared
// instance: enumeration scratch and the work table persist across calls,
// the returned mapping is the copy made at install, and with
// SetParallelism >= 2 the scan
// is sharded by its first choice — the first interval's end stage j and
// processor u, shard j*p+u in the serial visit order — with a
// shard-order fold.
//
// After a completed front pass the goal's optimum is known
// (incumbent.Optimum on the pass's list, under the cap on the other
// metric). It seeds every shard's bound, so the scan cuts every mapping
// strictly worse than it, and the scan stops at the first mapping that
// reaches it. The scan order and the install rule are unchanged, and the
// unseeded scan keeps that same mapping: no later one strictly improves
// on the optimum. The result is the unseeded scan's, byte for byte.
func (pp *PipelinePrepared) SolveExact(ctx context.Context, goal Goal) (Mapping, Cost, bool, error) {
	is := &pp.search
	is.ctx, is.goal, is.nshards, is.seed = ctx, goal, 1, numeric.Inf
	cap := goal.PeriodCap
	if goal.MinimizePeriod {
		cap = goal.LatencyCap
	}
	if cap <= 0 {
		cap = numeric.Inf
	}
	if v, ok := incumbent.Optimum(pp.front, goal.MinimizePeriod, cap); ok {
		is.seed = v
	}
	if pp.par > 1 {
		is.nshards = pp.n * pp.pl.Processors()
	}
	for len(is.extra) < pp.par-1 {
		is.extra = append(is.extra, &intervalScan{pp: pp})
	}
	r, _, err := incumbent.Run[pipeResult](pp.par, is.nshards, is)
	is.ctx = nil
	if err != nil {
		return Mapping{}, Cost{}, false, err
	}
	return r.m, r.c, r.ok, nil
}

// pruneInterval reports whether every completion that places stages i..j
// on processor u is certainly infeasible (period cap) or certainly worse
// than the incumbent bound (period objective): the interval's work over
// its speed lower-bounds its Equation (1) bracket and hence the mapping
// period. lbSlack keeps the reciprocal product a true lower bound and
// surelyGreater clears the comparison tolerance, so pruning only skips
// candidates the unpruned enumeration would reject — the installed
// result is bit-identical.
func (pp *PipelinePrepared) pruneInterval(goal Goal, i, j, u int, bound float64) bool {
	est := pp.workTbl[i][j] * pp.inv[u] * lbSlack
	if goal.PeriodCap > 0 && surelyGreater(est, goal.PeriodCap) {
		return true
	}
	return goal.MinimizePeriod && surelyGreater(est, bound)
}

// intervalSearch is the incumbent.Search of one SolveExact call:
// nshards is 1 (the whole space) or stages*procs. own is worker 0's scan
// — the serial scan — and extra[w-1] worker w's; all are kept across
// solves. seed is the goal's optimum a completed front pass proved, +Inf
// for none.
type intervalSearch struct {
	ctx     context.Context
	goal    Goal
	seed    float64
	nshards int
	own     intervalScan
	extra   []*intervalScan
}

func (is *intervalSearch) Scan(sh *incumbent.Shards, w, shard int) (pipeResult, bool, error) {
	sc := &is.own
	if w > 0 {
		sc = is.extra[w-1]
	}
	return sc.scan(is.ctx, is.goal, is.seed, sh, shard, is.nshards == 1)
}

func (is *intervalSearch) Better(a, b pipeResult) bool {
	return numeric.Less(is.goal.value(a.c), is.goal.value(b.c))
}

func (is *intervalSearch) Final(r pipeResult) bool {
	return reaches(is.goal.value(r.c), is.seed)
}

// reaches reports whether a goal value v reaches the seed, the optimum a
// front pass proved (+Inf for none): no mapping strictly improves on it.
func reaches(v, seed float64) bool {
	return seed < numeric.Inf && numeric.LessEq(v, seed)
}

// intervalScan is one worker of the interval scan: the (bounds, alloc)
// scratch and the state of the shard it is scanning.
type intervalScan struct {
	pp            *PipelinePrepared
	bounds, alloc []int

	ctx    context.Context
	goal   Goal
	seed   float64
	sh     *incumbent.Shards
	shard  int
	best   pipeResult
	bound  float64
	leaves int
	err    error
	// done is set once the shard's best reaches the seed, or an earlier
	// shard's did: the scan stops.
	done bool
	// latCut is whether the look-ahead latency bound can cut: the goal
	// minimizes the latency or caps it.
	latCut bool
	// nodes counts the walk nodes visited over the scan's life: the
	// host-independent work measure of the cut tests.
	nodes int
	// front is the Pareto list of a front pass (see Front), kept as
	// scratch for the next one.
	front []incumbent.Point
}

// scan enumerates the interval mappings of one shard — the whole space,
// or those whose first interval is stages 0..j on processor u for shard
// j*p+u — and returns the goal-best feasible one under the serial install
// rule (strict improvement replaces, ties keep the earlier mapping). The
// bound is the seed or the best value of any shard, whichever is
// smaller, polled every few dozen mappings: a candidate strictly worse
// cannot win the fold. A best within the seed ends the scan.
func (sc *intervalScan) scan(ctx context.Context, goal Goal, seed float64, sh *incumbent.Shards, shard int, whole bool) (pipeResult, bool, error) {
	pp := sc.pp
	if sc.bounds == nil {
		sc.bounds, sc.alloc = make([]int, 0, pp.n), make([]int, 0, pp.n)
	}
	sc.ctx, sc.goal, sc.seed, sc.sh, sc.shard = ctx, goal, seed, sh, shard
	sc.best, sc.bound, sc.leaves, sc.err, sc.done = pipeResult{}, min(sh.Bound(), seed), 0, nil, false
	sc.latCut = !goal.MinimizePeriod || goal.LatencyCap > 0
	sc.bounds, sc.alloc = sc.bounds[:0], sc.alloc[:0]
	procs := pp.pl.Processors()
	if whole {
		sc.walk(0, 0, 0)
	} else if j, u := shard/procs, shard%procs; !pp.pruneInterval(goal, 0, j, u, sc.bound) {
		lat := sc.placed(0, j, u, 0)
		sc.push(j, u)
		sc.walk(j+1, 1<<u, lat)
	}
	best, err := sc.best, sc.err
	sc.ctx, sc.best = nil, pipeResult{}
	if err != nil {
		return pipeResult{}, false, err
	}
	return best, best.ok, nil
}

func (sc *intervalScan) push(j, u int) {
	sc.bounds = append(sc.bounds, j+1)
	sc.alloc = append(sc.alloc, u)
}

func (sc *intervalScan) pop() {
	sc.bounds = sc.bounds[:len(sc.bounds)-1]
	sc.alloc = sc.alloc[:len(sc.alloc)-1]
}

// placed returns lat, the look-ahead latency of the intervals placed so
// far, with stages i..j on processor u appended: the interval's input
// transfer and its work over u's speed. Its output transfer is left out
// (it depends on the next processor), so lat never exceeds the latency
// of a completion up to rounding (see aheadSlack). Without latCut it
// stays 0.
func (sc *intervalScan) placed(i, j, u int, lat float64) float64 {
	if !sc.latCut {
		return 0
	}
	pp := sc.pp
	var in float64
	if len(sc.alloc) == 0 {
		in = pp.p.Data[i] / pp.pl.InBand[u]
	} else {
		in = pp.p.Data[i] / pp.pl.Band[sc.alloc[len(sc.alloc)-1]][u]
	}
	return lat + in + pp.workTbl[i][j]*pp.inv[u]
}

// cutAhead reports whether every completion of a node whose placed
// intervals cover stages ..i-1 with the processors in mask taken, at
// look-ahead latency lat, is certainly infeasible under the latency cap
// or certainly worse than the bound (latency objective). The remaining
// stages' work runs at best on the fastest free processor, so lat plus
// that work over its speed bounds the latency of every completion; a
// node with stages left and no free processor has no completion.
func (sc *intervalScan) cutAhead(i, mask int, lat float64) bool {
	lb, ok := sc.ahead(i, mask, lat)
	if !ok {
		return true
	}
	if sc.goal.LatencyCap > 0 && surelyGreater(lb, sc.goal.LatencyCap) {
		return true
	}
	return !sc.goal.MinimizePeriod && surelyGreater(lb, sc.bound)
}

// ahead returns the look-ahead latency bound of a node whose placed
// intervals cover stages ..i-1 with the processors in mask taken, at
// look-ahead latency lat: the remaining stages' work runs at best on the
// fastest free processor. ok is false when the node has stages left and
// no free processor, hence no completion.
func (sc *intervalScan) ahead(i, mask int, lat float64) (lb float64, ok bool) {
	pp := sc.pp
	inv := numeric.Inf
	for u := range pp.inv {
		if mask&(1<<u) == 0 {
			inv = min(inv, pp.inv[u])
		}
	}
	if inv == numeric.Inf {
		return 0, false
	}
	return (lat + pp.workTbl[i][pp.n-1]*inv) * aheadSlack, true
}

// walk places the intervals from stage i on, with the processors in
// mask taken and look-ahead latency lat (see placed), and installs each
// complete mapping under the serial rule. It polls the shared bound and
// the shard's decision every 64 mappings and the context every 256.
func (sc *intervalScan) walk(i, mask int, lat float64) {
	pp := sc.pp
	sc.nodes++
	if sc.err != nil || sc.done {
		return
	}
	if i == pp.n {
		if sc.leaves++; sc.leaves%64 == 0 {
			sc.bound = min(sc.bound, sc.sh.Bound())
			if sc.done = sc.sh.Decided(sc.shard); sc.done {
				return
			}
			if sc.leaves%256 == 0 {
				if sc.err = sc.ctx.Err(); sc.err != nil {
					return
				}
			}
		}
		c := evalTrusted(pp.p, pp.pl, Mapping{Bounds: sc.bounds, Alloc: sc.alloc})
		if !sc.goal.feasible(c) {
			return
		}
		v := sc.goal.value(c)
		if sc.best.ok && !numeric.Less(v, sc.goal.value(sc.best.c)) || numeric.Greater(v, sc.bound) {
			return
		}
		sc.best = pipeResult{m: cloneMapping(Mapping{Bounds: sc.bounds, Alloc: sc.alloc}), c: c, ok: true}
		sc.bound = min(sc.bound, v)
		sc.sh.Tighten(v)
		if reaches(v, sc.seed) {
			sc.done = true
			sc.sh.ReachedLB(sc.shard)
		}
		return
	}
	if sc.latCut && sc.cutAhead(i, mask, lat) {
		return
	}
	procs := pp.pl.Processors()
	for j := i; j < pp.n; j++ {
		for u := 0; u < procs; u++ {
			if mask&(1<<u) != 0 || pp.pruneInterval(sc.goal, i, j, u, sc.bound) {
				continue
			}
			next := sc.placed(i, j, u, lat)
			sc.push(j, u)
			sc.walk(j+1, mask|1<<u, next)
			sc.pop()
		}
	}
}

// Front returns the exact Pareto front of (period, latency), by
// increasing period and decreasing latency, from one bi-criteria pass:
// a serial walk of the interval scan's tree that keeps the
// non-dominated costs of the mappings it reaches (incumbent.Insert: the
// walk meets them out of period order). A node carries two lower bounds
// on every completion: the largest work-over-speed of its placed
// intervals (pruneInterval's bound, which their period brackets cannot
// undercut) and the look-ahead latency of cutAhead. Once a point of the
// list weakly dominates that pair, every completion is weakly dominated
// too (incumbent.Leq is monotone) and would leave the list unchanged, so
// the node is cut. A completed pass keeps its list to seed the exact
// solves that follow (see SolveExact); a pass cut short by ctx returns
// ctx's error and keeps nothing.
func (pp *PipelinePrepared) Front(ctx context.Context) ([]Cost, error) {
	pp.front = nil
	sc := &pp.search.own
	if sc.bounds == nil {
		sc.bounds, sc.alloc = make([]int, 0, pp.n), make([]int, 0, pp.n)
	}
	sc.ctx, sc.leaves, sc.err, sc.latCut = ctx, 0, nil, true
	sc.bounds, sc.alloc, sc.front = sc.bounds[:0], sc.alloc[:0], sc.front[:0]
	sc.frontWalk(0, 0, 0, 0)
	sc.ctx = nil
	if sc.err != nil {
		return nil, sc.err
	}
	pp.front = sc.front
	front := make([]Cost, len(sc.front))
	for k, pt := range sc.front {
		front[k] = Cost{Period: pt.Period, Latency: pt.Latency}
	}
	return front, nil
}

// frontWalk is walk for the front pass: it places the intervals from
// stage i on, with the processors in mask taken, look-ahead latency lat
// (see placed) and period bound per, and inserts each complete mapping's
// cost into the list. It polls the context every 256 mappings.
func (sc *intervalScan) frontWalk(i, mask int, lat, per float64) {
	pp := sc.pp
	sc.nodes++
	if sc.err != nil {
		return
	}
	if i == pp.n {
		if sc.leaves++; sc.leaves%256 == 0 {
			if sc.err = sc.ctx.Err(); sc.err != nil {
				return
			}
		}
		c := evalTrusted(pp.p, pp.pl, Mapping{Bounds: sc.bounds, Alloc: sc.alloc})
		sc.front = incumbent.Insert(sc.front, incumbent.Point{Period: c.Period, Latency: c.Latency})
		return
	}
	if lb, ok := sc.ahead(i, mask, lat); !ok || incumbent.Dominated(sc.front, per, lb) {
		return
	}
	procs := pp.pl.Processors()
	for j := i; j < pp.n; j++ {
		for u := 0; u < procs; u++ {
			if mask&(1<<u) != 0 {
				continue
			}
			next := sc.placed(i, j, u, lat)
			sc.push(j, u)
			sc.frontWalk(j+1, mask|1<<u, next, max(per, pp.workTbl[i][j]*pp.inv[u]*lbSlack))
			sc.pop()
		}
	}
}

// ForkPrepared solves one one-port fork instance repeatedly under
// varying goals, reusing the partition/assignment scratch and the
// send-order buffers across solves. Not safe for concurrent use.
type ForkPrepared struct {
	f  Fork
	pl Platform
	n  int

	assign     []int
	blockProcs []int
	usedProc   []bool
	blocks     []ForkBlock
	leafBufs   [][]int
	post       []float64
	order      []int
}

// NewForkPrepared validates the instance once and builds a prepared
// solver for it.
func NewForkPrepared(f Fork, pl Platform) (*ForkPrepared, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	n, procs := f.Leaves(), pl.Processors()
	maxBlocks := n + 1
	if procs < maxBlocks {
		maxBlocks = procs
	}
	leafBufs := make([][]int, maxBlocks)
	for i := range leafBufs {
		leafBufs[i] = make([]int, 0, n)
	}
	return &ForkPrepared{
		f: f, pl: pl, n: n,
		assign:     make([]int, n),
		blockProcs: make([]int, maxBlocks),
		usedProc:   make([]bool, procs),
		blocks:     make([]ForkBlock, maxBlocks),
		leafBufs:   leafBufs,
		post:       make([]float64, 0, maxBlocks),
		order:      make([]int, 0, maxBlocks),
	}, nil
}

func cloneForkMapping(m ForkMapping) ForkMapping {
	if m.Blocks == nil {
		return ForkMapping{}
	}
	out := ForkMapping{
		RootBlock: m.RootBlock,
		Blocks:    make([]ForkBlock, len(m.Blocks)),
		SendOrder: make([]int, len(m.SendOrder)),
	}
	copy(out.SendOrder, m.SendOrder)
	for i, b := range m.Blocks {
		out.Blocks[i] = ForkBlock{Proc: b.Proc, Leaves: append([]int(nil), b.Leaves...)}
	}
	return out
}

// SolveExact exhaustively optimizes the one-port fork: it enumerates
// every partition of the leaves into blocks (block 0 is the root block
// and may hold no leaf), every injective processor assignment, and
// evaluates each mapping with the latency-optimal send order (the period
// is send-order independent, so one order per assignment suffices for
// both metrics). Runs under the flexible model of EvalFork. The send
// order is a stable insertion sort reproducing OptimalSendOrder's stable
// sort, and all scratch is reused across calls; the returned mapping is
// the copy made at install.
func (fp *ForkPrepared) SolveExact(ctx context.Context, goal Goal) (ForkMapping, Cost, bool, error) {
	n, procs := fp.n, fp.pl.Processors()
	var (
		bestM  ForkMapping
		bestC  Cost
		found  bool
		iter   int
		ctxErr error
	)
	tryAssign := func(blocks int) {
		m := ForkMapping{RootBlock: 0, Blocks: fp.blocks[:blocks]}
		for b := 0; b < blocks; b++ {
			m.Blocks[b] = ForkBlock{Proc: fp.blockProcs[b], Leaves: fp.leafBufs[b][:0]}
		}
		for l := 0; l < n; l++ {
			b := fp.assign[l]
			m.Blocks[b].Leaves = append(m.Blocks[b].Leaves, l)
		}
		// Latency-optimal send order: non-root blocks by non-increasing
		// post-receive time, stable — the insertion keeps equal keys in
		// block order, matching OptimalSendOrder's stable sort.
		order, post := fp.order[:0], fp.post[:0]
		for i := 1; i < blocks; i++ {
			compute, out := fp.f.blockTimes(fp.pl, m.Blocks[i])
			pv := compute + out
			order = append(order, 0)
			post = append(post, 0)
			k := len(order) - 1
			for k > 0 && post[k-1] < pv {
				order[k], post[k] = order[k-1], post[k-1]
				k--
			}
			order[k], post[k] = i, pv
		}
		m.SendOrder = order
		c := evalForkTrusted(fp.f, fp.pl, m, false)
		if !goal.feasible(c) {
			return
		}
		if !found || numeric.Less(goal.value(c), goal.value(bestC)) {
			bestM, bestC, found = cloneForkMapping(m), c, true
		}
	}
	var chooseProcs func(b, blocks int)
	chooseProcs = func(b, blocks int) {
		if ctxErr != nil {
			return
		}
		if b == blocks {
			iter++
			if iter%128 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return
				}
			}
			tryAssign(blocks)
			return
		}
		for u := 0; u < procs; u++ {
			if fp.usedProc[u] {
				continue
			}
			fp.usedProc[u] = true
			fp.blockProcs[b] = u
			chooseProcs(b+1, blocks)
			fp.usedProc[u] = false
		}
	}
	var parts func(l, blocks int)
	parts = func(l, blocks int) {
		if ctxErr != nil {
			return
		}
		if l == n {
			chooseProcs(0, blocks)
			return
		}
		limit := blocks
		if blocks < procs {
			limit = blocks + 1
		}
		for b := 0; b < limit; b++ {
			fp.assign[l] = b
			nb := blocks
			if b == blocks {
				nb = blocks + 1
			}
			parts(l+1, nb)
		}
	}
	// blocks starts at 1: the root block always exists even with no leaf.
	parts(0, 1)
	if ctxErr != nil {
		return ForkMapping{}, Cost{}, false, ctxErr
	}
	return bestM, bestC, found, nil
}
