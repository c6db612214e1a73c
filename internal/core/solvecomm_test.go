package core

import (
	"testing"

	"repliflow/internal/fullmodel"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func commPipeProblem(speeds []float64, bw fullmodel.Bandwidth, obj Objective) Problem {
	p := fullmodel.NewPipeline([]float64{3, 1, 2}, []float64{1, 2, 1, 1})
	return Problem{
		CommPipeline: &p, Bandwidth: &bw,
		Platform: platform.New(speeds...), Objective: obj,
	}
}

// TestCommValidation: the communication-aware kinds require Bandwidth,
// the simplified-model kinds reject it, and neither comm kind has a
// data-parallel model.
func TestCommValidation(t *testing.T) {
	pr := commPipeProblem([]float64{1, 1}, fullmodel.Bandwidth{Uniform: 4}, MinPeriod)
	if err := pr.Validate(); err != nil {
		t.Fatalf("valid comm pipeline rejected: %v", err)
	}

	noBW := pr
	noBW.Bandwidth = nil
	if err := noBW.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("missing bandwidth accepted: %v", err)
	}

	dp := pr
	dp.AllowDataParallel = true
	if err := dp.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("data-parallelism accepted on comm pipeline: %v", err)
	}

	pipe := workflow.NewPipeline(1, 2)
	legacy := Problem{
		Pipeline: &pipe, Platform: platform.New(1, 1),
		Objective: MinPeriod, Bandwidth: &fullmodel.Bandwidth{Uniform: 1},
	}
	if err := legacy.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("bandwidth accepted on simplified-model pipeline: %v", err)
	}

	badBW := pr
	badBW.Bandwidth = &fullmodel.Bandwidth{Uniform: 1, In: []float64{1, 1}}
	if err := badBW.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("uniform+tables bandwidth accepted: %v", err)
	}
}

// TestCommPipelineDispatch: fully homogeneous platforms take the
// polynomial DP cells, heterogeneous ones the NP-hard exhaustive cell,
// and non-uniform bandwidth alone pushes an instance off the polynomial
// path even with uniform speeds.
func TestCommPipelineDispatch(t *testing.T) {
	hom := commPipeProblem([]float64{1, 1}, fullmodel.Bandwidth{Uniform: 4}, MinPeriod)
	sol, err := Solve(hom, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || sol.Method != MethodBinarySearchDP || !sol.Feasible {
		t.Errorf("hom min-period solve = %+v, want exact binary-search+DP", sol)
	}
	if sol.CommPipelineMapping == nil {
		t.Error("solution lost its comm mapping")
	}

	homLat := commPipeProblem([]float64{1, 1}, fullmodel.Bandwidth{Uniform: 4}, MinLatency)
	if sol, err = Solve(homLat, Options{}); err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || sol.Method != MethodDP {
		t.Errorf("hom min-latency solve = %+v, want exact DP", sol)
	}

	het := commPipeProblem([]float64{1, 2}, fullmodel.Bandwidth{Uniform: 4}, MinPeriod)
	if key := CellKeyOf(het); key.PlatformHomogeneous {
		t.Fatalf("het speeds classified platform-homogeneous: %v", key)
	}
	if sol, err = Solve(het, Options{}); err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || sol.Method != MethodExhaustive {
		t.Errorf("het solve = %+v, want exact exhaustive", sol)
	}

	// Uniform speeds but non-uniform links: the stricter fully-homogeneous
	// axis of the comm kinds must classify this as heterogeneous.
	unevenLinks := commPipeProblem([]float64{1, 1}, fullmodel.Bandwidth{
		Links: [][]float64{{0, 1}, {3, 0}},
		In:    []float64{2, 2},
		Out:   []float64{2, 2},
	}, MinPeriod)
	if key := CellKeyOf(unevenLinks); key.PlatformHomogeneous {
		t.Errorf("non-uniform bandwidth classified platform-homogeneous: %v", key)
	}
}

// TestCommForkDispatch: the one-port fork is NP-hard on every axis; small
// instances solve exhaustively, oversized ones heuristically — and the
// anytime budget is ignored (the comm kinds have no Anytime capability).
func TestCommForkDispatch(t *testing.T) {
	f := fullmodel.Fork{Root: 2, In: 1, Out0: 1, Weights: []float64{3, 1}, Outs: []float64{1, 1}}
	pr := Problem{
		CommFork: &f, Bandwidth: &fullmodel.Bandwidth{Uniform: 2},
		Platform: platform.New(1, 2, 1), Objective: MinPeriod,
	}
	cl, err := Classify(pr)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Complexity.Polynomial() {
		t.Fatalf("one-port fork classified polynomial: %+v", cl)
	}
	sol, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || sol.Method != MethodExhaustive || sol.CommForkMapping == nil {
		t.Errorf("small solve = %+v, want exact exhaustive with mapping", sol)
	}

	big := fullmodel.Fork{
		Root: 2, In: 1, Out0: 1,
		Weights: []float64{3, 1, 2, 4, 1, 2, 3, 1},
		Outs:    []float64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	prBig := Problem{
		CommFork: &big, Bandwidth: &fullmodel.Bandwidth{Uniform: 2},
		Platform: platform.New(1, 2, 1, 1, 2, 1), Objective: MinPeriod,
	}
	if sol, err = Solve(prBig, Options{}); err != nil {
		t.Fatal(err)
	}
	if sol.Exact || sol.Method != MethodHeuristic {
		t.Errorf("oversized solve = %+v, want heuristic", sol)
	}
	budgeted, err := Solve(prBig, Options{AnytimeBudget: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Anytime || budgeted.Method != sol.Method || budgeted.Cost != sol.Cost {
		t.Errorf("budget changed a kind without the Anytime capability: %+v vs %+v", budgeted, sol)
	}
}

// TestCommForkFrontReachesMinLatency: the comm-fork sweep reaches the
// least-latency end of the front. On this instance every period carries
// transfer terms that a sweep over communication-free candidate periods
// missed, and its front once came out empty although min-period solves
// exactly.
func TestCommForkFrontReachesMinLatency(t *testing.T) {
	f := fullmodel.Fork{Root: 5, In: 5, Out0: 4, Weights: []float64{3, 4, 5, 2}, Outs: []float64{2, 5, 3, 5}}
	pr := Problem{
		CommFork: &f,
		Bandwidth: &fullmodel.Bandwidth{
			Links: [][]float64{{0, 1, 5}, {4, 0, 4}, {1, 5, 0}},
			In:    []float64{4, 1, 3},
			Out:   []float64{5, 5, 5},
		},
		Platform:  platform.New(4, 4, 5),
		Objective: MinLatency,
	}
	best, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Exact {
		t.Fatalf("min-latency solve = %+v, want exact", best)
	}
	front, err := ParetoFront(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front for a feasible instance")
	}
	if last := front[len(front)-1]; !numeric.Eq(last.Cost.Latency, best.Cost.Latency) {
		t.Errorf("front ends at latency %v, want the least latency %v", last.Cost.Latency, best.Cost.Latency)
	}
}
