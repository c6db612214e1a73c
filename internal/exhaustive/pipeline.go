package exhaustive

import (
	"context"
	"math"
	"sync/atomic"

	"repliflow/internal/anytime"
	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// PipelineResult is an optimal mapping together with its exact cost.
type PipelineResult struct {
	Mapping mapping.PipelineMapping
	Cost    mapping.Cost
}

// pipeChoice records the decision taken in a DP state for reconstruction.
type pipeChoice struct {
	last int // last stage of the chosen interval
	sub  int // processor submask assigned to it
	dp   bool
}

// pipeSolver is a dynamic program over states (next stage, used-processor
// bitmask). It is resettable: Reset rearms it for a new bound/objective on
// the same (pipeline, platform) pair without reallocating the DP arrays —
// the visited marks are epoch counters, so clearing them is one increment.
type pipeSolver struct {
	p       workflow.Pipeline
	pl      platform.Platform
	info    []maskInfo
	allowDP bool
	// periodCap excludes groups whose period exceeds it (+Inf = no cap).
	periodCap float64
	// minimizePeriod selects the objective: min-max of group periods when
	// true, min-sum of group delays when false.
	minimizePeriod bool

	memo []float64
	// visited[id] == epoch marks id as solved in the current epoch; Reset
	// bumps epoch instead of clearing the array.
	visited []uint32
	epoch   uint32
	choice  []pipeChoice
	full    int
	n       int
	pbits   int // pl.Processors(), the state-id shift
	step    *stepper
	// suffix[i] is the total weight of stages i..n-1, feeding the
	// anytime lower bound that prunes a state's search once its best
	// value provably cannot improve.
	suffix []float64
	// prune disables the bound cutoffs when false (the regression tests
	// compare pruned against unpruned searches byte for byte).
	prune bool
	// par is the worker count of the level sweep; <= 1 keeps the
	// top-down recursion (see solveParallel for the contract).
	par int

	// The bi-criteria pass (frontPass) keeps every state's non-dominated
	// completions in arena, located by span and marked by visited/epoch
	// like the scalar memo; listed names the states it listed, and lvl
	// holds each stage level's working list and merge buffer. A completed
	// pass keeps span, arena and listed, which answer every later
	// latency-under-period solve (see walk); a pass cut short releases
	// all four.
	span   []frontSpan
	arena  []incumbent.Point
	listed []int32
	lvl    [][2][]incumbent.Point
}

func newPipeSolver(ctx context.Context, p workflow.Pipeline, pl platform.Platform, allowDP bool, periodCap float64, minimizePeriod bool) *pipeSolver {
	n := p.Stages()
	states := (n + 1) << pl.Processors()
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + p.Weights[i]
	}
	return &pipeSolver{
		p: p, pl: pl, info: buildMaskInfo(pl), allowDP: allowDP,
		periodCap: periodCap, minimizePeriod: minimizePeriod,
		memo:    make([]float64, states),
		visited: make([]uint32, states),
		epoch:   1,
		choice:  make([]pipeChoice, states),
		full:    (1 << pl.Processors()) - 1,
		n:       n,
		pbits:   pl.Processors(),
		step:    newStepper(ctx),
		suffix:  suffix,
		prune:   true,
	}
}

// reset rearms the solver for a fresh solve under a new cap/objective: the
// DP state is invalidated by bumping the epoch (no reallocation, no
// clearing), and the stepper is rearmed on ctx.
func (s *pipeSolver) reset(ctx context.Context, periodCap float64, minimizePeriod bool) {
	s.periodCap = periodCap
	s.minimizePeriod = minimizePeriod
	s.epoch++
	if s.epoch == 0 { // wrapped: every stale mark looks current, so clear
		clear(s.visited)
		s.epoch = 1
	}
	s.step.reset(ctx)
}

// stateLB returns the anytime lower bound on the state value of mapping
// stages i..n-1 onto the processors in freeMask, or -1 when no bound
// applies. The bound is exact-search-safe: stopping a state's loops once
// its best reaches the bound cannot change the returned mapping, because
// later candidates can at most tie and ties never replace the incumbent
// choice.
func (s *pipeSolver) stateLB(i, freeMask int) float64 {
	if !s.prune || freeMask == 0 {
		return -1
	}
	fi := &s.info[freeMask]
	if s.minimizePeriod {
		return anytime.PeriodLB(s.suffix[i], fi.sum)
	}
	return anytime.LatencyLB(s.suffix[i], fi.sum, fi.max, s.allowDP)
}

// solve returns the optimal objective value for mapping stages i..n-1 with
// the processors in usedMask unavailable, or +Inf if infeasible under the
// period cap: the top-down recursion over the reachable states, each
// solved once per epoch by state.
func (s *pipeSolver) solve(i, usedMask int) float64 {
	if i == s.n {
		return 0
	}
	id := i<<s.pbits | usedMask
	if s.visited[id] == s.epoch {
		return s.memo[id]
	}
	s.visited[id] = s.epoch
	s.memo[id], s.choice[id] = s.state(i, usedMask, s.step, false)
	return s.memo[id]
}

// state runs the candidate loops of one DP state and returns its value
// and recorded choice, polling cancellation through st (on cancellation
// the value is +Inf and is never read: the caller surfaces st.err).
//
// The enumeration runs subsets outer, interval ends inner: for a fixed
// subset both the replicated period and delay grow with the interval
// weight, so the period-cap filter and the cannot-improve filter terminate
// the inner loop instead of skipping one iteration — the exact set of
// surviving candidates is unchanged (both predicates are monotone in the
// group cost), only the wasted iterations disappear.
func (s *pipeSolver) state(i, usedMask int, st *stepper, sweep bool) (float64, pipeChoice) {
	best := numeric.Inf
	var bestChoice pipeChoice
	free := s.full &^ usedMask
	lb := s.stateLB(i, free)
	cap := s.periodCap
	minP := s.minimizePeriod
	wi := s.p.Weights[i]
search:
	for sub := free; sub > 0; sub = (sub - 1) & free {
		if !st.ok() {
			return numeric.Inf, pipeChoice{}
		}
		info := &s.info[sub]
		// Replicated intervals i..j, weight growing with j.
		w := 0.0
		for j := i; j < s.n; j++ {
			w += s.p.Weights[j]
			period := w * info.perInv
			if numeric.Greater(period, cap) {
				break // larger intervals only raise the period
			}
			group := period
			if !minP {
				group = w * info.invMin // delay
			}
			if numeric.GreaterEq(group, best) {
				break // cannot improve: both max and sum combine monotonically
			}
			// A child state: the level sweep has filled every deeper
			// level, the recursion fills it on a miss. Level n is never
			// written, so its entries stay 0 — the empty suffix.
			rest := s.memo[(j+1)<<s.pbits|usedMask|sub]
			if !sweep && s.visited[(j+1)<<s.pbits|usedMask|sub] != s.epoch {
				rest = s.solve(j+1, usedMask|sub)
			}
			total := group + rest
			if minP {
				total = rest
				if group > rest {
					total = group
				}
			}
			if numeric.Less(total, best) {
				best = total
				bestChoice = pipeChoice{last: j, sub: sub, dp: false}
				if lb >= 0 && numeric.LessEq(best, lb) {
					// The state reached its lower bound: no candidate
					// can strictly improve, and ties never replace the
					// recorded choice.
					break search
				}
			}
		}
		if s.allowDP {
			// Data-parallel is legal for single-stage groups only: stage i
			// alone on the subset.
			c := wi * info.invSum
			if !numeric.Greater(c, cap) && !numeric.GreaterEq(c, best) {
				rest := s.memo[(i+1)<<s.pbits|usedMask|sub]
				if !sweep && s.visited[(i+1)<<s.pbits|usedMask|sub] != s.epoch {
					rest = s.solve(i+1, usedMask|sub)
				}
				total := c + rest
				if minP {
					total = rest
					if c > rest {
						total = c
					}
				}
				if numeric.Less(total, best) {
					best = total
					bestChoice = pipeChoice{last: i, sub: sub, dp: true}
					if lb >= 0 && numeric.LessEq(best, lb) {
						break search
					}
				}
			}
		}
	}
	return best, bestChoice
}

// sweepChunk is how many DP states a sweep worker claims per shard: enough
// to amortize the claim, few enough that the expensive low-population
// masks spread across workers.
const sweepChunk = 32

// solveParallel fills the DP table bottom-up, one stage level at a time:
// a state at level i only reads states at levels > i, so all masks of a
// level are independent — each level is one incumbent.Each run whose
// shards are chunks of sweepChunk masks, and the run's return is the
// barrier that gives the next level's reads their happens-before edge.
// Each worker polls cancellation through its own stepper; the solver's
// stepper stays untouched until the root state.
//
// Determinism: every state's value and choice come from state, the
// body the top-down recursion runs, and they depend only on deeper
// levels — never on sibling order — so the table, the root value and the
// reconstructed mapping are byte-identical to the recursion. The sweep
// computes every mask, including states the recursion never reaches;
// that extra work is why small instances stay serial (core's auto mode
// applies a crossover heuristic before enabling the sweep).
func (s *pipeSolver) solveParallel() float64 {
	ctx := s.step.ctx
	nmasks := 1 << s.pbits
	steps := make([]*stepper, s.par)
	for w := range steps {
		steps[w] = newStepper(ctx)
	}
	for i := s.n - 1; i >= 1; i-- {
		err := incumbent.Each(s.par, (nmasks+sweepChunk-1)/sweepChunk, func(_ *incumbent.Shards, w, chunk int) error {
			st := steps[w]
			for mask := chunk * sweepChunk; mask < min((chunk+1)*sweepChunk, nmasks); mask++ {
				id := i<<s.pbits | mask
				s.memo[id], s.choice[id] = s.state(i, mask, st, true)
				if st.err != nil {
					return st.err
				}
				s.visited[id] = s.epoch
			}
			return nil
		})
		if err != nil {
			s.step.err = err
			return numeric.Inf
		}
	}
	v, ch := s.state(0, 0, s.step, true)
	if s.step.err == nil {
		s.memo[0], s.choice[0], s.visited[0] = v, ch, s.epoch
	}
	return v
}

// dpSolves counts the scalar DP solves of every pipeline solver in the
// process (see PipelineDPSolves).
var dpSolves atomic.Int64

// PipelineDPSolves returns how many scalar DP solves the pipeline solvers
// of this process have run: neither the bi-criteria pass nor a walk over
// its lists counts. Tests read it around a sweep to pin its solve count,
// which wall-clock time cannot.
func PipelineDPSolves() int64 { return dpSolves.Load() }

// frontSpan locates a state's Pareto list in the pass's arena.
type frontSpan struct{ off, n int32 }

// emptySuffix is the Pareto list of level n: the empty suffix costs
// nothing on either criterion.
var emptySuffix = [1]incumbent.Point{}

// frontPass computes the Pareto list of the root state: the exact front
// of (period, latency), by increasing period and strictly decreasing
// latency. It is the scalar DP with a list for a value. A state keeps
// its non-dominated completions; a transition folds the group's
// (period, delay) into the child's list as (max, sum), which is monotone
// in both, so only the child's non-dominated completions can reach the
// state's list. The caller resets the solver first; on cancellation the
// result is nil and s.step.err is set. A completed pass keeps its lists
// for walk.
func (s *pipeSolver) frontPass() []incumbent.Point {
	s.span = make([]frontSpan, len(s.memo))
	s.arena = make([]incumbent.Point, 0, len(s.memo))
	s.listed = make([]int32, 0, len(s.memo))
	// Every level's two lists start on one backing array, with room for
	// the fronts of bench-sized instances; longer ones regrow.
	const room = 16
	s.lvl = make([][2][]incumbent.Point, s.n)
	backing := make([]incumbent.Point, 2*room*s.n)
	for i := range s.lvl {
		s.lvl[i][0] = backing[2*room*i : 2*room*i : 2*room*i+room]
		s.lvl[i][1] = backing[2*room*i+room : 2*room*i+room : 2*room*(i+1)]
	}
	root := s.front(0, 0)
	s.lvl = nil
	if s.step.err != nil {
		// A pass cut inside a state has listed only part of the states
		// and left part of its lists unfolded: nothing of it is kept.
		s.span, s.arena, s.listed = nil, nil, nil
		return nil
	}
	return append([]incumbent.Point(nil), root...)
}

// walk answers the latency-under-period solve at s.periodCap, after a
// completed pass, without the DP: the value of a listed state under the
// cap is the latency of the last point of its list whose period is
// within the cap — the list rises in period and falls in latency — or
// +Inf when none is. With every listed state's memo filled that way, the
// unchanged candidate loops of state, run along the path from (0, 0),
// record the DP's choices; a child the pass never listed is a memo miss,
// solved by the scalar recursion as in the DP. A fold adds a group's
// delay to a child's latency as the DP adds it to the child's value, so
// a list value is the DP's total for the same completion, bit for bit
// (TestPipelineWalkMatchesDP compares the mappings and costs). The
// caller resets the solver first.
func (s *pipeSolver) walk() float64 {
	for _, id := range s.listed {
		v := numeric.Inf
		sp := s.span[id]
		for _, pt := range s.arena[sp.off : sp.off+sp.n] {
			if numeric.Greater(pt.Period, s.periodCap) {
				break
			}
			v = pt.Latency
		}
		s.memo[id], s.visited[id] = v, s.epoch
	}
	for i, usedMask := 0, 0; i < s.n; {
		v, ch := s.state(i, usedMask, s.step, false)
		if s.step.err != nil || math.IsInf(v, 1) {
			return numeric.Inf
		}
		id := i<<s.pbits | usedMask
		s.memo[id], s.choice[id], s.visited[id] = v, ch, s.epoch
		i, usedMask = ch.last+1, usedMask|ch.sub
	}
	return s.memo[0] // the root; 0, the empty suffix, when n == 0
}

// front returns the Pareto list of state (i, usedMask), computing it on
// the first visit of the epoch. The slice aliases the arena: it stays
// valid until the next state is stored, which never happens before the
// caller has folded it.
func (s *pipeSolver) front(i, usedMask int) []incumbent.Point {
	if i == s.n {
		return emptySuffix[:]
	}
	id := i<<s.pbits | usedMask
	if s.visited[id] != s.epoch {
		s.visited[id] = s.epoch
		s.span[id] = s.frontState(i, usedMask)
		s.listed = append(s.listed, int32(id))
	}
	sp := s.span[id]
	return s.arena[sp.off : sp.off+sp.n]
}

// frontState runs the candidate loops of state on lists: a group whose
// own (period, delay) is weakly dominated by the list so far cannot add
// a point, and neither can the longer intervals on the same subset,
// whose period and delay are larger still — the interval loop breaks
// there, as the scalar DP's cannot-improve test does.
func (s *pipeSolver) frontState(i, usedMask int) frontSpan {
	cur := s.lvl[i][0][:0]
	free := s.full &^ usedMask
	for sub := free; sub > 0; sub = (sub - 1) & free {
		if !s.step.ok() {
			return frontSpan{}
		}
		info := &s.info[sub]
		w := 0.0
		for j := i; j < s.n; j++ {
			w += s.p.Weights[j]
			period, delay := w*info.perInv, w*info.invMin
			if incumbent.Dominated(cur, period, delay) {
				break
			}
			cur = s.fold(i, cur, period, delay, s.front(j+1, usedMask|sub))
		}
		if s.allowDP {
			c := s.p.Weights[i] * info.invSum
			if !incumbent.Dominated(cur, c, c) {
				cur = s.fold(i, cur, c, c, s.front(i+1, usedMask|sub))
			}
		}
	}
	s.lvl[i][0] = cur
	sp := frontSpan{off: int32(len(s.arena)), n: int32(len(cur))}
	s.arena = append(s.arena, cur...)
	return sp
}

// fold merges into level i's list cur the completions of a group of
// cost (period, delay) followed by child's: (max(period, p), delay + l)
// for each child point (p, l). The child points within the group's
// period all collapse onto its period, where the last of them — the
// least latency — dominates the others. Once a state's list has filled
// in, most folds add nothing, so the completions are first tested
// against the list, and only a survivor pays for the merge. The merge
// runs in period order and keeps the list non-dominated; cur's buffer
// becomes the level's next merge buffer.
func (s *pipeSolver) fold(i int, cur []incumbent.Point, period, delay float64, child []incumbent.Point) []incumbent.Point {
	m := 0
	for m+1 < len(child) && child[m+1].Period <= period {
		m++
	}
	if coversAll(cur, period, delay, child[m:]) {
		return cur
	}
	first := incumbent.Point{Period: max(period, child[m].Period), Latency: delay + child[m].Latency}
	a := 0
	for a < len(cur) && (cur[a].Period < first.Period || cur[a].Period == first.Period && cur[a].Latency <= first.Latency) {
		a++
	}
	out := append(s.lvl[i][1][:0], cur[:a]...)
	for a < len(cur) || m < len(child) {
		var pt incumbent.Point
		if m < len(child) {
			pt = incumbent.Point{Period: max(period, child[m].Period), Latency: delay + child[m].Latency}
		}
		if m == len(child) || a < len(cur) && (cur[a].Period < pt.Period || cur[a].Period == pt.Period && cur[a].Latency <= pt.Latency) {
			pt = cur[a]
			a++
		} else {
			m++
		}
		out = incumbent.Append(out, pt)
	}
	s.lvl[i][1] = cur
	return out
}

// coversAll reports whether list weakly dominates every completion of a
// group of cost (period, delay) followed by the child points, whose
// periods rise: one pass of two pointers.
func coversAll(list []incumbent.Point, period, delay float64, child []incumbent.Point) bool {
	k := -1
	for _, c := range child {
		p, l := max(period, c.Period), delay+c.Latency
		for k+1 < len(list) && incumbent.Leq(list[k+1].Period, p) {
			k++
		}
		if k < 0 || !incumbent.Leq(list[k].Latency, l) {
			return false
		}
	}
	return true
}

// reconstruct rebuilds the optimal mapping from the recorded choices.
// Procs slices are copied out of the platform table here — once per
// returned mapping, never in the search loops — so callers own (and may
// mutate) their mappings without corrupting the solver's table.
func (s *pipeSolver) reconstruct() mapping.PipelineMapping {
	var m mapping.PipelineMapping
	i, usedMask := 0, 0
	for i < s.n {
		id := i<<s.pbits | usedMask
		ch := s.choice[id]
		mode := mapping.Replicated
		if ch.dp {
			mode = mapping.DataParallel
		}
		m.Intervals = append(m.Intervals, mapping.PipelineInterval{
			First: i, Last: ch.last,
			Assignment: mapping.Assignment{Procs: append([]int(nil), s.info[ch.sub].procs...), Mode: mode},
		})
		usedMask |= ch.sub
		i = ch.last + 1
	}
	return m
}

func (s *pipeSolver) result() (PipelineResult, bool, error) {
	var v float64
	switch {
	case s.listed != nil && !s.minimizePeriod:
		v = s.walk()
	case s.par > 1 && s.n > 0:
		dpSolves.Add(1)
		v = s.solveParallel()
	default:
		dpSolves.Add(1)
		v = s.solve(0, 0)
	}
	if s.step.err != nil {
		return PipelineResult{}, false, s.step.err
	}
	if math.IsInf(v, 1) {
		return PipelineResult{}, false, nil
	}
	m := s.reconstruct()
	c, err := mapping.EvalPipeline(s.p, s.pl, m)
	if err != nil {
		// The DP only builds structurally valid mappings; an error here is a
		// programming bug, surface it loudly.
		panic("exhaustive: reconstructed invalid pipeline mapping: " + err.Error())
	}
	return PipelineResult{Mapping: m, Cost: c}, true, nil
}

// PipelinePrepared solves repeated objective/bound variants of one
// (pipeline, platform, model) triple, sharing the platform subset table,
// the DP arrays (reset by epoch, not reallocation) and the exact Pareto
// front across solves. Once Front's pass has
// completed, a latency-under-period solve (and so a period-under-latency
// one) walks the pass's per-state lists; every other solve runs the DP
// (repeated bounds are answered by the engine's result cache). Results
// are byte-identical to the one-shot package functions — which are thin
// wrappers over a prepared solver used once.
//
// A PipelinePrepared is NOT safe for concurrent use: callers pool
// instances (one per worker) instead of locking.
type PipelinePrepared struct {
	p       workflow.Pipeline
	pl      platform.Platform
	allowDP bool
	s       *pipeSolver
	// front is the exact Pareto front, computed once (see Front).
	front []mapping.Cost
}

// NewPipelinePrepared returns a prepared solver for the triple. It builds
// the platform table; no DP work happens until the first solve.
func NewPipelinePrepared(p workflow.Pipeline, pl platform.Platform, allowDP bool) *PipelinePrepared {
	return &PipelinePrepared{
		p: p, pl: pl, allowDP: allowDP,
		s: newPipeSolver(context.Background(), p, pl, allowDP, numeric.Inf, true),
	}
}

// SetParallelism sets the worker count of subsequent solves: counts
// above 1 select the level-synchronous parallel DP sweep, anything else
// the serial recursion. Results are byte-identical either way (see
// solveParallel). The prepared solver itself remains single-owner:
// parallelism fans out inside one solve, it does not make the solver
// safe for concurrent use.
func (pp *PipelinePrepared) SetParallelism(workers int) {
	pp.s.par = workers
}

// Period solves MinPeriod.
func (pp *PipelinePrepared) Period(ctx context.Context) (PipelineResult, bool, error) {
	pp.s.reset(ctx, numeric.Inf, true)
	return pp.s.result()
}

// Latency solves MinLatency.
func (pp *PipelinePrepared) Latency(ctx context.Context) (PipelineResult, bool, error) {
	return pp.LatencyUnderPeriod(ctx, numeric.Inf)
}

// LatencyUnderPeriod solves min-latency under the period cap: by a walk
// over the front pass's lists once Front has completed, else by the DP.
func (pp *PipelinePrepared) LatencyUnderPeriod(ctx context.Context, maxPeriod float64) (PipelineResult, bool, error) {
	pp.s.reset(ctx, maxPeriod, false)
	return pp.s.result()
}

// Front returns the exact Pareto front of (period, latency), by
// increasing period and decreasing latency, from one bi-criteria pass
// over the DP's states (see frontPass). It is computed once per prepared
// solver; the returned slice is the solver's own, which callers must not
// modify. A pass cut short by ctx returns ctx's error and keeps nothing.
func (pp *PipelinePrepared) Front(ctx context.Context) ([]mapping.Cost, error) {
	if pp.front == nil {
		pp.s.reset(ctx, numeric.Inf, false)
		pts := pp.s.frontPass()
		if err := pp.s.step.err; err != nil {
			return nil, err
		}
		pp.front = make([]mapping.Cost, len(pts))
		for k, pt := range pts {
			pp.front[k] = mapping.Cost{Period: pt.Period, Latency: pt.Latency}
		}
	}
	return pp.front, nil
}

// PeriodUnderLatency solves min-period under the latency cap with one
// walk over the front pass's lists. The first front point within the cap
// has the least period any mapping within it can reach, and the least
// latency any mapping within that period can reach: the
// latency-under-period walk at the point's own period is the optimum,
// and the mapping and cost are that walk's.
func (pp *PipelinePrepared) PeriodUnderLatency(ctx context.Context, maxLatency float64) (PipelineResult, bool, error) {
	front, err := pp.Front(ctx)
	if err != nil {
		return PipelineResult{}, false, err
	}
	k := 0
	for k < len(front) && !numeric.LessEq(front[k].Latency, maxLatency) {
		k++
	}
	if k == len(front) {
		return PipelineResult{}, false, nil
	}
	return pp.LatencyUnderPeriod(ctx, front[k].Period)
}

// Solve dispatches on (minimizePeriod, bound): the four objective shapes
// of the Table 1 bi-criteria columns, sharing one prepared state.
// Unbounded solves pass bound = +Inf.
func (pp *PipelinePrepared) Solve(ctx context.Context, minimizePeriod bool, bound float64) (PipelineResult, bool, error) {
	switch {
	case minimizePeriod && math.IsInf(bound, 1):
		return pp.Period(ctx)
	case minimizePeriod:
		return pp.PeriodUnderLatency(ctx, bound)
	default:
		return pp.LatencyUnderPeriod(ctx, bound)
	}
}

// PipelinePeriod returns a mapping minimizing the period.
func PipelinePeriod(p workflow.Pipeline, pl platform.Platform, allowDP bool) (PipelineResult, bool) {
	res, ok, _ := NewPipelinePrepared(p, pl, allowDP).Period(context.Background())
	return res, ok
}

// PipelineLatency returns a mapping minimizing the latency.
func PipelineLatency(p workflow.Pipeline, pl platform.Platform, allowDP bool) (PipelineResult, bool) {
	res, ok, _ := NewPipelinePrepared(p, pl, allowDP).Latency(context.Background())
	return res, ok
}

// PipelineLatencyUnderPeriod returns a mapping minimizing the latency among
// mappings whose period does not exceed maxPeriod. The boolean is false
// when no mapping satisfies the period bound.
func PipelineLatencyUnderPeriod(p workflow.Pipeline, pl platform.Platform, allowDP bool, maxPeriod float64) (PipelineResult, bool) {
	res, ok, _ := NewPipelinePrepared(p, pl, allowDP).LatencyUnderPeriod(context.Background(), maxPeriod)
	return res, ok
}

// PipelinePeriodUnderLatency returns a mapping minimizing the period among
// mappings whose latency does not exceed maxLatency: the Pareto front
// names the least period, and one latency-under-period solve at it
// supplies the mapping, so the result is exact. The boolean is false when
// no mapping satisfies the latency bound.
func PipelinePeriodUnderLatency(p workflow.Pipeline, pl platform.Platform, allowDP bool, maxLatency float64) (PipelineResult, bool) {
	res, ok, _ := NewPipelinePrepared(p, pl, allowDP).PeriodUnderLatency(context.Background(), maxLatency)
	return res, ok
}

// PipelinePareto returns the exact Pareto front of (period, latency),
// ordered by increasing period and decreasing latency. Each point carries a
// mapping achieving it: the front's pass, then one PeriodUnderLatency
// solve per point, each a walk over the pass's lists.
func PipelinePareto(p workflow.Pipeline, pl platform.Platform, allowDP bool) []PipelineResult {
	pp := NewPipelinePrepared(p, pl, allowDP)
	ctx := context.Background()
	front, _ := pp.Front(ctx)
	var out []PipelineResult
	for _, pt := range front {
		if res, ok, _ := pp.PeriodUnderLatency(ctx, pt.Latency); ok {
			out = append(out, res)
		}
	}
	return out
}

// enumeratePipeline invokes visit for every valid canonical pipeline
// mapping (processor sets as subsets, both modes where legal). It is a
// slower, independent ground truth used to cross-check the DP solvers in
// tests.
func enumeratePipeline(p workflow.Pipeline, pl platform.Platform, allowDP bool, visit func(mapping.PipelineMapping, mapping.Cost)) {
	n := p.Stages()
	full := (1 << pl.Processors()) - 1
	info := buildMaskInfo(pl)
	var rec func(i, usedMask int, acc []mapping.PipelineInterval)
	rec = func(i, usedMask int, acc []mapping.PipelineInterval) {
		if i == n {
			m := mapping.PipelineMapping{Intervals: append([]mapping.PipelineInterval(nil), acc...)}
			c, err := mapping.EvalPipeline(p, pl, m)
			if err != nil {
				panic("exhaustive: enumerated invalid mapping: " + err.Error())
			}
			visit(m, c)
			return
		}
		free := full &^ usedMask
		for j := i; j < n; j++ {
			for sub := free; sub > 0; sub = (sub - 1) & free {
				modes := []mapping.Mode{mapping.Replicated}
				if allowDP && i == j {
					modes = append(modes, mapping.DataParallel)
				}
				for _, mode := range modes {
					iv := mapping.PipelineInterval{
						First: i, Last: j,
						Assignment: mapping.Assignment{Procs: append([]int(nil), info[sub].procs...), Mode: mode},
					}
					rec(j+1, usedMask|sub, append(acc, iv))
				}
			}
		}
	}
	rec(0, 0, nil)
}
