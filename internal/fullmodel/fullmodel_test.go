package fullmodel

import (
	"context"
	"math/rand"
	"testing"

	"repliflow/internal/chains"
	"repliflow/internal/numeric"
	"repliflow/internal/workflow"
)

func uniformData(n int, d float64) []float64 {
	data := make([]float64, n+1)
	for i := range data {
		data[i] = d
	}
	return data
}

// homSolve runs one unconstrained homogeneous DP solve on a fresh prepared
// solver.
func homSolve(t *testing.T, p Pipeline, pl Platform, minimizePeriod bool) (Mapping, Cost, error) {
	m, c, _, err := prepare(t, p, pl).SolveHom(Goal{MinimizePeriod: minimizePeriod})
	return m, c, err
}

func TestValidate(t *testing.T) {
	p := NewPipeline([]float64{3, 5}, []float64{1, 2, 1})
	pl := Uniform([]float64{2, 1}, 4)
	good := Mapping{Bounds: []int{1, 2}, Alloc: []int{0, 1}}
	if err := Validate(p, pl, good); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	bad := []Mapping{
		{},
		{Bounds: []int{2}, Alloc: []int{0, 1}}, // length mismatch
		{Bounds: []int{0, 2}, Alloc: []int{0, 1}}, // empty interval
		{Bounds: []int{1}, Alloc: []int{0}},       // does not cover
		{Bounds: []int{1, 2}, Alloc: []int{0, 0}}, // duplicate processor
		{Bounds: []int{1, 2}, Alloc: []int{0, 7}}, // out of range
	}
	for i, m := range bad {
		if err := Validate(p, pl, m); err == nil {
			t.Errorf("bad mapping %d accepted", i)
		}
	}
	if err := (Pipeline{Weights: []float64{1}, Data: []float64{1}}).Validate(); err == nil {
		t.Error("pipeline with wrong data length accepted")
	}
	if err := (Pipeline{Weights: []float64{1}, Data: []float64{1, -1}}).Validate(); err == nil {
		t.Error("negative data size accepted")
	}
}

func TestEvalEquations(t *testing.T) {
	// Two stages (w=6, w=4) with data sizes (2, 4, 2), two processors of
	// speeds (2, 1), uniform bandwidth 2, split into two intervals.
	p := NewPipeline([]float64{6, 4}, []float64{2, 4, 2})
	pl := Uniform([]float64{2, 1}, 2)
	m := Mapping{Bounds: []int{1, 2}, Alloc: []int{0, 1}}
	c, err := Eval(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	// Interval 1 on P1: in 2/2 + compute 6/2 + out 4/2 = 1+3+2 = 6.
	// Interval 2 on P2: in 4/2 + compute 4/1 + out 2/2 = 2+4+1 = 7.
	if !numeric.Eq(c.Period, 7) {
		t.Errorf("period = %v, want 7", c.Period)
	}
	if !numeric.Eq(c.Latency, 13) {
		t.Errorf("latency = %v, want 13", c.Latency)
	}
}

func TestEvalSingleInterval(t *testing.T) {
	p := NewPipeline([]float64{6, 4}, []float64{2, 4, 2})
	pl := Uniform([]float64{2, 1}, 2)
	m := Mapping{Bounds: []int{2}, Alloc: []int{0}}
	c, err := Eval(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	// in 2/2 + compute 10/2 + out 2/2 = 1+5+1 = 7; the inner delta_1 is
	// internal to the interval and costs nothing.
	if !numeric.Eq(c.Period, 7) || !numeric.Eq(c.Latency, 7) {
		t.Fatalf("got %v, want 7/7", c)
	}
}

func TestZeroCommunicationMatchesChains(t *testing.T) {
	// With all data sizes zero and a homogeneous platform, minimizing the
	// period is exactly chains-to-chains (no replication in this model).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		q := 1 + rng.Intn(4)
		w := workflow.RandomPipeline(rng, n, 9)
		p := NewPipeline(w.Weights, uniformData(n, 0))
		pl := Uniform(make([]float64, q), 1)
		for u := range pl.Speeds {
			pl.Speeds[u] = 1
		}
		_, c, err := homSolve(t, p, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := chains.DP(w.Weights, q)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.Eq(c.Period, want) {
			t.Fatalf("trial %d: fullmodel period %v != chains %v (w=%v q=%d)",
				trial, c.Period, want, w.Weights, q)
		}
	}
}

func TestHomPeriodMatchesExactSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		q := 1 + rng.Intn(4)
		w := workflow.RandomPipeline(rng, n, 9)
		data := make([]float64, n+1)
		for i := range data {
			data[i] = float64(rng.Intn(6))
		}
		p := NewPipeline(w.Weights, data)
		speeds := make([]float64, q)
		for u := range speeds {
			speeds[u] = 2
		}
		pl := Uniform(speeds, float64(1+rng.Intn(3)))
		_, c, err := homSolve(t, p, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		_, ref, ok := bruteSolve(p, pl, Goal{MinimizePeriod: true})
		if !ok {
			t.Fatal("exact solve infeasible")
		}
		if !numeric.Eq(c.Period, ref.Period) {
			t.Fatalf("trial %d: DP period %v != exact %v (w=%v data=%v q=%d)",
				trial, c.Period, ref.Period, w.Weights, data, q)
		}
	}
}

func TestHomLatencyMatchesExactSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		q := 1 + rng.Intn(4)
		w := workflow.RandomPipeline(rng, n, 9)
		data := make([]float64, n+1)
		for i := range data {
			data[i] = float64(rng.Intn(6))
		}
		p := NewPipeline(w.Weights, data)
		speeds := make([]float64, q)
		for u := range speeds {
			speeds[u] = 1
		}
		pl := Uniform(speeds, float64(1+rng.Intn(3)))
		_, c, err := homSolve(t, p, pl, false)
		if err != nil {
			t.Fatal(err)
		}
		_, ref, ok := bruteSolve(p, pl, Goal{})
		if !ok {
			t.Fatal("exact solve infeasible")
		}
		if !numeric.Eq(c.Latency, ref.Latency) {
			t.Fatalf("trial %d: DP latency %v != exact %v", trial, c.Latency, ref.Latency)
		}
	}
}

func TestLatencyOptimumIsSingleIntervalUnderUniformComm(t *testing.T) {
	// With uniform bandwidth every split adds communication, so the
	// unconstrained latency optimum on a homogeneous platform is one
	// interval.
	p := NewPipeline([]float64{3, 1, 4}, uniformData(3, 2))
	pl := Uniform([]float64{1, 1, 1}, 1)
	m, c, err := homSolve(t, p, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Intervals() != 1 {
		t.Errorf("latency optimum uses %d intervals, want 1 (%v)", m.Intervals(), m)
	}
	if !numeric.Eq(c.Latency, 2+8+2) {
		t.Errorf("latency = %v, want 12", c.Latency)
	}
}

func TestCommunicationChangesTheOptimalSplit(t *testing.T) {
	// Without communication, splitting 4 stages over 2 processors always
	// helps the period. With a huge boundary data size, the optimal period
	// mapping keeps everything on one processor.
	weights := []float64{4, 4, 4, 4}
	cheap := NewPipeline(weights, uniformData(4, 0))
	pl := Uniform([]float64{1, 1}, 1)
	mCheap, cCheap, err := homSolve(t, cheap, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	if mCheap.Intervals() != 2 || !numeric.Eq(cCheap.Period, 8) {
		t.Fatalf("zero-comm optimum: %v %v", mCheap, cCheap)
	}
	expensive := NewPipeline(weights, []float64{0, 100, 100, 100, 0})
	mExp, cExp, err := homSolve(t, expensive, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	if mExp.Intervals() != 1 || !numeric.Eq(cExp.Period, 16) {
		t.Fatalf("expensive-comm optimum: %v %v", mExp, cExp)
	}
}

func TestHetExactUsesFastLinks(t *testing.T) {
	// Two processors; the link P1->P2 is fast, P2->P1 slow. The optimal
	// 2-interval mapping must route the inter-stage data over the fast
	// link (P1 first, then P2).
	p := NewPipeline([]float64{4, 4}, []float64{0, 8, 0})
	pl := Uniform([]float64{1, 1}, 1)
	pl.Band[0][1] = 8   // fast
	pl.Band[1][0] = 0.5 // slow
	m, c, ok, err := prepare(t, p, pl).SolveExact(context.Background(), Goal{MinimizePeriod: true})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if m.Intervals() == 2 {
		if m.Alloc[0] != 0 || m.Alloc[1] != 1 {
			t.Errorf("optimal mapping uses the slow link: %v (cost %v)", m, c)
		}
	}
	// Period with the fast link: max(0+4+8/8, 8/8+4+0) = 5.
	if !numeric.Eq(c.Period, 5) {
		t.Errorf("period = %v, want 5", c.Period)
	}
}

func TestExactSolvePeriodCap(t *testing.T) {
	p := NewPipeline([]float64{4, 4}, uniformData(2, 0))
	pl := Uniform([]float64{1, 1}, 1)
	pp := prepare(t, p, pl)
	if _, _, ok, _ := pp.SolveExact(context.Background(), Goal{PeriodCap: 1}); ok {
		t.Error("impossible period cap accepted")
	}
	_, c, ok, err := pp.SolveExact(context.Background(), Goal{PeriodCap: 4})
	if err != nil || !ok {
		t.Fatalf("feasible cap rejected: %v", err)
	}
	if numeric.Greater(c.Period, 4) {
		t.Errorf("period %v exceeds cap", c.Period)
	}
}

func TestRejectsHetPlatformInHomSolvers(t *testing.T) {
	p := NewPipeline([]float64{1}, uniformData(1, 0))
	pl := Uniform([]float64{1, 2}, 1)
	if _, _, err := homSolve(t, p, pl, true); err == nil {
		t.Error("heterogeneous platform accepted by the homogeneous DP")
	}
	pl2 := Uniform([]float64{1, 1}, 1)
	pl2.Band[0][1] = 9
	if _, _, err := homSolve(t, p, pl2, false); err == nil {
		t.Error("heterogeneous bandwidth accepted by the homogeneous DP")
	}
}

func TestMorePeriodBudgetNeverHurtsLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		w := workflow.RandomPipeline(rng, n, 9)
		data := make([]float64, n+1)
		for i := range data {
			data[i] = float64(rng.Intn(4))
		}
		p := NewPipeline(w.Weights, data)
		pl := Uniform([]float64{1, 1, 1}, 2)
		_, base, err := homSolve(t, p, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		_, cTight, okTight, err := prepare(t, p, pl).SolveExact(context.Background(), Goal{PeriodCap: base.Period})
		if err != nil || !okTight {
			t.Fatalf("optimal period cap infeasible: %v", err)
		}
		_, cLoose, okLoose, err := prepare(t, p, pl).SolveExact(context.Background(), Goal{PeriodCap: base.Period * 2})
		if err != nil || !okLoose {
			t.Fatalf("loose cap infeasible: %v", err)
		}
		if okTight && numeric.Less(cTight.Latency, cLoose.Latency) {
			t.Fatalf("trial %d: tighter period cap yielded lower latency", trial)
		}
	}
}
