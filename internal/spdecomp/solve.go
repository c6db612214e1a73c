package spdecomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Goal is the objective of a block solve, mirroring core's four
// objectives without importing core: minimize one metric subject to an
// optional cap on the other (zero caps mean unbounded).
type Goal struct {
	MinimizeLatency bool
	PeriodCap       float64
	LatencyCap      float64
}

// Feasible reports whether the cost respects the caps.
func (g Goal) Feasible(c mapping.Cost) bool {
	if g.PeriodCap > 0 && numeric.Greater(c.Period, g.PeriodCap) {
		return false
	}
	if g.LatencyCap > 0 && numeric.Greater(c.Latency, g.LatencyCap) {
		return false
	}
	return true
}

// Value returns the minimized metric.
func (g Goal) Value(c mapping.Cost) float64 {
	if g.MinimizeLatency {
		return c.Latency
	}
	return c.Period
}

// Better reports whether a strictly improves on b under the goal:
// feasibility first, then cap violation, then the minimized metric.
func (g Goal) Better(a, b mapping.Cost) bool {
	fa, fb := g.Feasible(a), g.Feasible(b)
	if fa != fb {
		return fa
	}
	if !fa {
		if va, vb := g.violation(a), g.violation(b); !numeric.Eq(va, vb) {
			return va < vb
		}
	}
	return numeric.Less(g.Value(a), g.Value(b))
}

func (g Goal) violation(c mapping.Cost) float64 {
	var v float64
	if g.PeriodCap > 0 && c.Period > g.PeriodCap {
		v += c.Period - g.PeriodCap
	}
	if g.LatencyCap > 0 && c.Latency > g.LatencyCap {
		v += c.Latency - g.LatencyCap
	}
	return v
}

// blockEval carries the precomputed structure shared by every block
// evaluation of one solve: canonical topological order, predecessor
// lists and scratch buffers.
type blockEval struct {
	g       workflow.SP
	pl      platform.Platform
	topo    []int
	preds   [][]int
	procOf  []int
	finish  []float64
	avail   []float64
	loadOf  []float64 // total weight per processor
	touched []int     // processors used by the current assignment
}

func newBlockEval(g workflow.SP, pl platform.Platform) (*blockEval, error) {
	topo, err := g.Topo()
	if err != nil {
		return nil, err
	}
	n, p := len(g.Steps), pl.Processors()
	return &blockEval{
		g: g, pl: pl, topo: topo, preds: g.Preds(),
		procOf: make([]int, n), finish: make([]float64, n),
		avail: make([]float64, p), loadOf: make([]float64, p),
	}, nil
}

// costOf evaluates the step->processor assignment in procOf. The period
// is the largest per-processor load over speed; the latency is the
// makespan of the canonical list schedule (steps in topological order,
// each starting when its predecessors and its processor are free).
func (st *blockEval) costOf() mapping.Cost {
	for _, q := range st.touched {
		st.avail[q], st.loadOf[q] = 0, 0
	}
	st.touched = st.touched[:0]
	var c mapping.Cost
	for _, v := range st.topo {
		q := st.procOf[v]
		if st.avail[q] == 0 && st.loadOf[q] == 0 {
			st.touched = append(st.touched, q)
		}
		start := st.avail[q]
		for _, u := range st.preds[v] {
			if st.finish[u] > start {
				start = st.finish[u]
			}
		}
		d := st.g.Steps[v].Weight / st.pl.Speeds[q]
		st.finish[v] = start + d
		st.avail[q] = st.finish[v]
		st.loadOf[q] += st.g.Steps[v].Weight
		if st.finish[v] > c.Latency {
			c.Latency = st.finish[v]
		}
	}
	for _, q := range st.touched {
		if per := st.loadOf[q] / st.pl.Speeds[q]; per > c.Period {
			c.Period = per
		}
	}
	return c
}

// blocks converts the current assignment into mapping blocks, ordered by
// processor index with steps ascending.
func (st *blockEval) blocks() []mapping.SPBlock {
	byProc := make(map[int][]int)
	for v := range st.procOf {
		byProc[st.procOf[v]] = append(byProc[st.procOf[v]], v)
	}
	procs := make([]int, 0, len(byProc))
	for q := range byProc {
		procs = append(procs, q)
	}
	sort.Ints(procs)
	out := make([]mapping.SPBlock, 0, len(procs))
	for _, q := range procs {
		steps := byProc[q]
		sort.Ints(steps)
		out = append(out, mapping.SPBlock{Proc: q, Steps: steps})
	}
	return out
}

func (st *blockEval) setBlocks(blocks []mapping.SPBlock) {
	for _, b := range blocks {
		for _, s := range b.Steps {
			st.procOf[s] = b.Proc
		}
	}
}

// ValidateBlocks checks that blocks partition every step exactly once
// onto distinct in-range processors.
func ValidateBlocks(g workflow.SP, pl platform.Platform, blocks []mapping.SPBlock) error {
	if len(blocks) == 0 {
		return errors.New("spdecomp: mapping has no block")
	}
	seenStep := make([]bool, len(g.Steps))
	seenProc := make(map[int]bool, len(blocks))
	for i, b := range blocks {
		if b.Proc < 0 || b.Proc >= pl.Processors() {
			return fmt.Errorf("spdecomp: block %d uses processor %d out of range [0,%d)", i, b.Proc, pl.Processors())
		}
		if seenProc[b.Proc] {
			return fmt.Errorf("spdecomp: processor P%d assigned to two blocks", b.Proc+1)
		}
		seenProc[b.Proc] = true
		if len(b.Steps) == 0 {
			return fmt.Errorf("spdecomp: block %d is empty", i)
		}
		for _, s := range b.Steps {
			if s < 0 || s >= len(g.Steps) {
				return fmt.Errorf("spdecomp: block %d references step %d out of range [0,%d)", i, s, len(g.Steps))
			}
			if seenStep[s] {
				return fmt.Errorf("spdecomp: step %q assigned to two blocks", g.Steps[s].Name)
			}
			seenStep[s] = true
		}
	}
	for s, ok := range seenStep {
		if !ok {
			return fmt.Errorf("spdecomp: step %q not mapped", g.Steps[s].Name)
		}
	}
	return nil
}

// Eval validates the blocks and returns their cost under the SP block
// model.
func Eval(g workflow.SP, pl platform.Platform, blocks []mapping.SPBlock) (mapping.Cost, error) {
	if err := g.Validate(); err != nil {
		return mapping.Cost{}, err
	}
	if err := pl.Validate(); err != nil {
		return mapping.Cost{}, err
	}
	if err := ValidateBlocks(g, pl, blocks); err != nil {
		return mapping.Cost{}, err
	}
	st, err := newBlockEval(g, pl)
	if err != nil {
		return mapping.Cost{}, err
	}
	st.setBlocks(blocks)
	return st.costOf(), nil
}

// Bounds returns certified lower bounds on the period and latency of any
// block mapping: no period beats spreading the total work over all
// speeds or running the heaviest step on the fastest processor, and no
// latency beats the critical path at full speed.
func Bounds(g workflow.SP, pl platform.Platform) (periodLB, latencyLB float64) {
	total, maxW := 0.0, 0.0
	for _, s := range g.Steps {
		total += s.Weight
		if s.Weight > maxW {
			maxW = s.Weight
		}
	}
	sMax := pl.MaxSpeed()
	periodLB = total / pl.TotalSpeed()
	if lb := maxW / sMax; lb > periodLB {
		periodLB = lb
	}
	topo, _ := g.Topo()
	preds := g.Preds()
	cp := make([]float64, len(g.Steps))
	var critical float64
	for _, v := range topo {
		for _, u := range preds[v] {
			if cp[u] > cp[v] {
				cp[v] = cp[u]
			}
		}
		cp[v] += g.Steps[v].Weight
		if cp[v] > critical {
			critical = cp[v]
		}
	}
	latencyLB = critical / sMax
	if lb := total / pl.TotalSpeed(); lb > latencyLB {
		latencyLB = lb
	}
	return periodLB, latencyLB
}

// Candidate is a heuristic mapping with its evaluated cost.
type Candidate struct {
	Blocks []mapping.SPBlock
	Cost   mapping.Cost
}

// Heuristics returns a deterministic set of seed mappings: the whole DAG
// on the fastest processor, a makespan-greedy list schedule, a
// period-greedy LPT packing, and the recursive allocation that walks the
// SP decomposition tree splitting processors across parallel branches.
func Heuristics(g workflow.SP, pl platform.Platform) []Candidate {
	st, err := newBlockEval(g, pl)
	if err != nil {
		return nil
	}
	var out []Candidate
	add := func(procOf []int) {
		copy(st.procOf, procOf)
		c := st.costOf()
		blocks := st.blocks()
		for _, prev := range out {
			if sameBlocks(prev.Blocks, blocks) {
				return
			}
		}
		out = append(out, Candidate{Blocks: blocks, Cost: c})
	}
	n, p := len(g.Steps), pl.Processors()

	// 1. Everything on the fastest processor: optimal latency for chains,
	// the fallback the legacy heuristics also seed with.
	fastest := pl.Fastest()
	all := make([]int, n)
	for i := range all {
		all[i] = fastest
	}
	add(all)

	// 2. Makespan-greedy list schedule: each step, in canonical order,
	// goes to the processor that finishes it earliest.
	greedy := make([]int, n)
	finish := make([]float64, n)
	avail := make([]float64, p)
	for _, v := range st.topo {
		ready := 0.0
		for _, u := range st.preds[v] {
			if finish[u] > ready {
				ready = finish[u]
			}
		}
		bestQ, bestT := 0, math.Inf(1)
		for q := 0; q < p; q++ {
			start := avail[q]
			if ready > start {
				start = ready
			}
			t := start + g.Steps[v].Weight/pl.Speeds[q]
			if t < bestT {
				bestQ, bestT = q, t
			}
		}
		greedy[v] = bestQ
		finish[v] = bestT
		avail[bestQ] = bestT
	}
	add(greedy)

	// 3. Period-greedy LPT: heaviest step first onto the processor with
	// the smallest resulting load over speed.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Steps[order[i]].Weight > g.Steps[order[j]].Weight
	})
	lpt := make([]int, n)
	load := make([]float64, p)
	for _, v := range order {
		bestQ, bestT := 0, math.Inf(1)
		for q := 0; q < p; q++ {
			if t := (load[q] + g.Steps[v].Weight) / pl.Speeds[q]; t < bestT {
				bestQ, bestT = q, t
			}
		}
		lpt[v] = bestQ
		load[bestQ] += g.Steps[v].Weight
	}
	add(lpt)

	// 4. Tree-recursive allocation: series children reuse the full
	// processor set sequentially, parallel children split it
	// proportionally to their work.
	tree := buildTree(g)
	rec := make([]int, n)
	bySpeed := pl.SortedBySpeed() // non-decreasing speed
	procsAll := make([]int, len(bySpeed))
	for i, q := range bySpeed {
		procsAll[len(bySpeed)-1-i] = q // fastest first
	}
	allocTree(g, pl, tree, procsAll, rec)
	add(rec)

	return out
}

// allocTree assigns each step of the subtree a processor from the given
// subset (fastest first).
func allocTree(g workflow.SP, pl platform.Platform, nd *node, procs []int, procOf []int) {
	if len(procs) == 0 {
		return
	}
	switch nd.kind {
	case leafNode:
		procOf[nd.steps[0]] = procs[0]
	case seriesNode:
		for _, c := range nd.children {
			allocTree(g, pl, c, procs, procOf)
		}
	case parallelNode:
		// Heaviest children first; give each a share of the processors
		// proportional to its work, at least one while supplies last.
		kids := append([]*node(nil), nd.children...)
		work := func(n *node) float64 {
			var w float64
			for _, s := range n.steps {
				w += g.Steps[s].Weight
			}
			return w
		}
		sort.SliceStable(kids, func(i, j int) bool { return work(kids[i]) > work(kids[j]) })
		total := work(nd)
		next := 0
		for i, c := range kids {
			if next >= len(procs) {
				// Out of processors: share the fastest of the subset.
				allocTree(g, pl, c, procs[:1], procOf)
				continue
			}
			share := int(math.Round(work(c) / total * float64(len(procs))))
			if share < 1 {
				share = 1
			}
			if rest := len(kids) - 1 - i; share > len(procs)-next-rest {
				share = len(procs) - next - rest
			}
			if share < 1 {
				share = 1
			}
			allocTree(g, pl, c, procs[next:next+share], procOf)
			next += share
		}
	default: // atomNode: LPT within the subset
		order := append([]int(nil), nd.steps...)
		sort.SliceStable(order, func(i, j int) bool {
			return g.Steps[order[i]].Weight > g.Steps[order[j]].Weight
		})
		load := make([]float64, len(procs))
		for _, v := range order {
			bestI, bestT := 0, math.Inf(1)
			for i, q := range procs {
				if t := (load[i] + g.Steps[v].Weight) / pl.Speeds[q]; t < bestT {
					bestI, bestT = i, t
				}
			}
			procOf[v] = procs[bestI]
			load[bestI] += g.Steps[v].Weight
		}
	}
}

func sameBlocks(a, b []mapping.SPBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Proc != b[i].Proc || len(a[i].Steps) != len(b[i].Steps) {
			return false
		}
		for j := range a[i].Steps {
			if a[i].Steps[j] != b[i].Steps[j] {
				return false
			}
		}
	}
	return true
}

// Best returns the goal-best candidate of the set.
func Best(cands []Candidate, goal Goal) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range cands {
		if !found || goal.Better(c.Cost, best.Cost) {
			best, found = c, true
		}
	}
	return best, found
}

// Budgeted runs a seeded stochastic local search (move and swap
// neighbourhoods over the step->processor assignment) from the best
// heuristic seed until the budget or the context expires. It returns the
// incumbent, the number of evaluated neighbours, and whether the
// incumbent respects the caps.
func Budgeted(ctx context.Context, g workflow.SP, pl platform.Platform, goal Goal, seed uint64, budget time.Duration) ([]mapping.SPBlock, mapping.Cost, int, bool, error) {
	st, err := newBlockEval(g, pl)
	if err != nil {
		return nil, mapping.Cost{}, 0, false, err
	}
	cand, ok := Best(Heuristics(g, pl), goal)
	if !ok {
		return nil, mapping.Cost{}, 0, false, errors.New("spdecomp: no heuristic seed")
	}
	st.setBlocks(cand.Blocks)
	cur := append([]int(nil), st.procOf...)
	curCost := cand.Cost
	bestAssign := append([]int(nil), cur...)
	bestCost := curCost

	rng := rand.New(rand.NewSource(int64(seed)))
	deadline := time.Now().Add(budget)
	n, p := len(g.Steps), pl.Processors()
	iters := 0
	sinceImprove := 0
	for {
		if iters%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, mapping.Cost{}, iters, false, err
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
		iters++
		copy(st.procOf, cur)
		v := rng.Intn(n)
		if p > 1 && rng.Intn(2) == 0 {
			// Swap the processors of two steps.
			u := rng.Intn(n)
			st.procOf[v], st.procOf[u] = st.procOf[u], st.procOf[v]
		} else {
			st.procOf[v] = rng.Intn(p)
		}
		c := st.costOf()
		if goal.Better(c, curCost) {
			copy(cur, st.procOf)
			curCost = c
			if goal.Better(c, bestCost) {
				copy(bestAssign, cur)
				bestCost = c
				sinceImprove = 0
				continue
			}
		}
		sinceImprove++
		if sinceImprove > 400 {
			// Restart from a random assignment to escape local optima.
			for i := range cur {
				cur[i] = rng.Intn(p)
			}
			copy(st.procOf, cur)
			curCost = st.costOf()
			sinceImprove = 0
		}
	}
	copy(st.procOf, bestAssign)
	st.costOf()
	return st.blocks(), bestCost, iters, goal.Feasible(bestCost), nil
}
