package fullmodel

import (
	"context"
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestBandwidthValidateAndApply(t *testing.T) {
	if err := (Bandwidth{Uniform: 4}).Validate(3); err != nil {
		t.Errorf("uniform: %v", err)
	}
	if err := (Bandwidth{Uniform: -1}).Validate(3); err == nil {
		t.Error("negative uniform accepted")
	}
	if err := (Bandwidth{Uniform: 4, In: []float64{1}}).Validate(1); err == nil {
		t.Error("uniform plus tables accepted")
	}
	if err := (Bandwidth{Links: [][]float64{{0}}, In: []float64{1}, Out: []float64{1}}).Validate(2); err == nil {
		t.Error("mis-sized tables accepted")
	}
	pl := Bandwidth{Uniform: 4}.Apply([]float64{2, 2})
	if err := pl.Validate(); err != nil {
		t.Fatalf("applied platform invalid: %v", err)
	}
	if !pl.IsFullyHomogeneous() {
		t.Error("uniform bandwidth over equal speeds should be fully homogeneous")
	}
}

func randomCommPipeline(rng *rand.Rand, n int) Pipeline {
	ws := make([]float64, n)
	data := make([]float64, n+1)
	for i := range ws {
		ws[i] = float64(1 + rng.Intn(9))
	}
	for i := range data {
		data[i] = float64(rng.Intn(5))
	}
	return NewPipeline(ws, data)
}

// prepare returns a fresh prepared solver of p on pl.
func prepare(t testing.TB, p Pipeline, pl Platform) *PipelinePrepared {
	t.Helper()
	pp, err := NewPipelinePrepared(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// prepareFork returns a fresh prepared solver of f on pl.
func prepareFork(t testing.TB, f Fork, pl Platform) *ForkPrepared {
	t.Helper()
	fp, err := NewForkPrepared(f, pl)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func allGoals(bound float64) []Goal {
	return []Goal{
		{MinimizePeriod: true},
		{},
		{PeriodCap: bound},
		{MinimizePeriod: true, LatencyCap: 3 * bound},
	}
}

// The homogeneous DPs and the exhaustive enumeration must agree on every
// objective wherever both apply.
func TestSolveHomMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		p := randomCommPipeline(rng, 2+rng.Intn(4))
		pl := Uniform([]float64{2, 2, 2}, float64(1+rng.Intn(3)))
		for _, goal := range allGoals(float64(4 + rng.Intn(12))) {
			hm, hc, hok, err := prepare(t, p, pl).SolveHom(goal)
			if err != nil {
				t.Fatalf("SolveHom: %v", err)
			}
			_, ec, eok, err := prepare(t, p, pl).SolveExact(context.Background(), goal)
			if err != nil {
				t.Fatalf("SolveExact: %v", err)
			}
			if hok != eok {
				t.Fatalf("trial %d goal %+v: hom ok=%v exact ok=%v", trial, goal, hok, eok)
			}
			if !hok {
				continue
			}
			if !numeric.Eq(goal.value(hc), goal.value(ec)) {
				t.Errorf("trial %d goal %+v: hom %v vs exact %v", trial, goal, hc, ec)
			}
			if c, err := Eval(p, pl, hm); err != nil || !numeric.Eq(c.Period, hc.Period) || !numeric.Eq(c.Latency, hc.Latency) {
				t.Errorf("trial %d: hom mapping does not re-evaluate to its cost: %v %v", trial, c, err)
			}
		}
	}
}

func TestHeuristicCandidatesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := randomCommPipeline(rng, 1+rng.Intn(8))
		speeds := make([]float64, 1+rng.Intn(6))
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(5))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(4)))
		for i, m := range HeuristicCandidates(p, pl) {
			if _, err := Eval(p, pl, m); err != nil {
				t.Fatalf("trial %d candidate %d invalid: %v", trial, i, err)
			}
		}
	}
}

func randomCommFork(rng *rand.Rand, n int, zeroData bool) Fork {
	f := Fork{
		Root:    float64(1 + rng.Intn(9)),
		Weights: make([]float64, n),
		Outs:    make([]float64, n),
	}
	for i := range f.Weights {
		f.Weights[i] = float64(1 + rng.Intn(9))
	}
	if !zeroData {
		f.In = float64(rng.Intn(5))
		f.Out0 = float64(rng.Intn(5))
		for i := range f.Outs {
			f.Outs[i] = float64(rng.Intn(5))
		}
	}
	return f
}

func TestSolveForkExactValidAndBeatsHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		f := randomCommFork(rng, 1+rng.Intn(4), false)
		speeds := make([]float64, 2+rng.Intn(2))
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(4))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(4)))
		for _, goal := range []Goal{{MinimizePeriod: true}, {}} {
			m, c, ok, err := prepareFork(t, f, pl).SolveExact(context.Background(), goal)
			if err != nil || !ok {
				t.Fatalf("fork SolveExact: %v ok=%v", err, ok)
			}
			if got, err := EvalFork(f, pl, m, false); err != nil || !numeric.Eq(goal.value(got), goal.value(c)) {
				t.Fatalf("trial %d: returned mapping re-evaluates to %v (err %v), cost %v", trial, got, err, c)
			}
			for i, h := range ForkHeuristicCandidates(f, pl) {
				hc, err := EvalFork(f, pl, h, false)
				if err != nil {
					t.Fatalf("trial %d heuristic %d invalid: %v", trial, i, err)
				}
				if numeric.Less(goal.value(hc), goal.value(c)) {
					t.Errorf("trial %d: heuristic %d cost %v beats exact %v", trial, i, hc, c)
				}
			}
		}
	}
}

func TestSolveForkExactCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randomCommFork(rng, 8, false)
	pl := Uniform([]float64{3, 2, 1, 4, 2, 1}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := prepareFork(t, f, pl).SolveExact(ctx, Goal{}); err == nil {
		t.Fatal("cancelled fork solve returned nil error")
	}
}

// simpleForkOf converts a zero-data comm fork and mapping into the
// simplified model (single-processor replicated blocks).
func simpleForkOf(f Fork, m ForkMapping) (workflow.Fork, mapping.ForkMapping) {
	sf := workflow.NewFork(f.Root, f.Weights...)
	var sm mapping.ForkMapping
	for i, b := range m.Blocks {
		sm.Blocks = append(sm.Blocks, mapping.NewForkBlock(i == m.RootBlock, append([]int(nil), b.Leaves...), mapping.Replicated, b.Proc))
	}
	return sf, sm
}

// TestZeroDataForkMatchesSimplifiedEval is the Section 3.4 degeneration
// at the cost-model level: with every data size zero, the one-port
// flexible evaluation coincides with the simplified model on
// single-processor blocks, for random mappings.
func TestZeroDataForkMatchesSimplifiedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		f := randomCommFork(rng, n, true)
		procs := 1 + rng.Intn(4)
		speeds := make([]float64, procs)
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(5))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(4)))
		spl := platform.New(speeds...)

		// Random single-processor-block mapping: each leaf picks a
		// processor, the root gets one too.
		blockOf := make(map[int]int)
		m := ForkMapping{}
		rootProc := rng.Intn(procs)
		m.Blocks = append(m.Blocks, ForkBlock{Proc: rootProc})
		blockOf[rootProc] = 0
		m.RootBlock = 0
		for l := 0; l < n; l++ {
			u := rng.Intn(procs)
			b, ok := blockOf[u]
			if !ok {
				b = len(m.Blocks)
				m.Blocks = append(m.Blocks, ForkBlock{Proc: u})
				blockOf[u] = b
			}
			m.Blocks[b].Leaves = append(m.Blocks[b].Leaves, l)
		}
		// Drop a leafless non-root tail block never created here; the root
		// block may legitimately hold no leaf.
		commCost, err := EvalFork(f, pl, m, false)
		if err != nil {
			t.Fatalf("trial %d: comm eval: %v", trial, err)
		}
		sf, sm := simpleForkOf(f, m)
		simpleCost, err := mapping.EvalFork(sf, spl, sm)
		if err != nil {
			t.Fatalf("trial %d: simplified eval: %v", trial, err)
		}
		if !numeric.Eq(commCost.Period, simpleCost.Period) || !numeric.Eq(commCost.Latency, simpleCost.Latency) {
			t.Fatalf("trial %d: zero-data comm cost %v != simplified cost %v\nmapping: %+v",
				trial, commCost, simpleCost, m)
		}
	}
}

// TestZeroDataForkSolverMatchesSimplifiedOracle is the solver-level
// degeneration: on all-zero data sizes, the exact fork solve must return
// exactly the optimum of the simplified-model fork solver restricted to
// the mappings the comm model can express (single-processor replicated
// blocks — replication and data-parallelism have no comm cost model,
// Section 3.3).
func TestZeroDataForkSolverMatchesSimplifiedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		f := randomCommFork(rng, n, true)
		procs := 1 + rng.Intn(3)
		speeds := make([]float64, procs)
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(5))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(4)))
		spl := platform.New(speeds...)
		sf := workflow.NewFork(f.Root, f.Weights...)

		for _, minimizePeriod := range []bool{true, false} {
			_, commCost, ok, err := prepareFork(t, f, pl).SolveExact(context.Background(), Goal{MinimizePeriod: minimizePeriod})
			if err != nil || !ok {
				t.Fatalf("fork SolveExact: %v ok=%v", err, ok)
			}
			oracle := bestSimplifiedSingleProc(sf, spl, minimizePeriod)
			got := commCost.Latency
			if minimizePeriod {
				got = commCost.Period
			}
			if !numeric.Eq(got, oracle) {
				t.Fatalf("trial %d minimizePeriod=%v: comm optimum %v != simplified oracle %v",
					trial, minimizePeriod, got, oracle)
			}
		}
	}
}

// bestSimplifiedSingleProc brute-forces the simplified-model fork optimum
// over single-processor replicated blocks.
func bestSimplifiedSingleProc(f workflow.Fork, pl platform.Platform, minimizePeriod bool) float64 {
	n, procs := f.Leaves(), pl.Processors()
	best := numeric.Inf
	assign := make([]int, n) // leaf -> block; block 0 is the root block
	blockProc := make([]int, n+1)
	used := make([]bool, procs)
	try := func(blocks int) {
		var sm mapping.ForkMapping
		for b := 0; b < blocks; b++ {
			sm.Blocks = append(sm.Blocks, mapping.NewForkBlock(b == 0, nil, mapping.Replicated, blockProc[b]))
		}
		for l := 0; l < n; l++ {
			sm.Blocks[assign[l]].Leaves = append(sm.Blocks[assign[l]].Leaves, l)
		}
		c, err := mapping.EvalFork(f, pl, sm)
		if err != nil {
			return
		}
		v := c.Latency
		if minimizePeriod {
			v = c.Period
		}
		if v < best {
			best = v
		}
	}
	var chooseProcs func(b, blocks int)
	chooseProcs = func(b, blocks int) {
		if b == blocks {
			try(blocks)
			return
		}
		for u := 0; u < procs; u++ {
			if used[u] {
				continue
			}
			used[u] = true
			blockProc[b] = u
			chooseProcs(b+1, blocks)
			used[u] = false
		}
	}
	var parts func(l, blocks int)
	parts = func(l, blocks int) {
		if l == n {
			chooseProcs(0, blocks)
			return
		}
		limit := blocks
		if blocks < procs {
			limit = blocks + 1
		}
		for b := 0; b < limit; b++ {
			assign[l] = b
			nb := blocks
			if b == blocks {
				nb = blocks + 1
			}
			parts(l+1, nb)
		}
	}
	parts(0, 1)
	return best
}
