package core

import (
	"context"
	"testing"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// Allocation ceilings for warm prepared solves. A warm solve is a memo
// hit: it must only pay for the defensive clone of the memoized mapping
// (the sweep loop holds solutions while the prepared solver keeps
// serving), never for re-deriving DP tables, candidate sets, or platform
// tables. The ceilings have headroom over the measured costs but sit far
// below a cold solve, so a regression that re-runs any real work trips
// them immediately.

// TestPreparedSPSolveAllocs: warm prepared solves of an irreducible SP
// instance stay within the clone-only budget.
func TestPreparedSPSolveAllocs(t *testing.T) {
	g := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 3},
		workflow.SPStep{Name: "b", Weight: 2},
		workflow.SPStep{Name: "c", Weight: 4, After: workflow.After("a")},
		workflow.SPStep{Name: "d", Weight: 1, After: workflow.After("a", "b")},
		workflow.SPStep{Name: "e", Weight: 2, After: workflow.After("c", "d")},
	)
	if _, ok := spdecomp.Reduce(g); ok {
		t.Fatal("fixture reduced to a legacy kind; the test needs the irreducible SP path")
	}
	pr := Problem{SP: &g, Platform: platform.New(3, 2, 1)}
	ps, ok := Prepare(pr, Options{})
	if !ok {
		t.Fatal("Prepare refused an irreducible SP instance")
	}
	ctx := context.Background()
	for _, obj := range []Objective{MinPeriod, MinLatency} {
		if _, err := ps.Solve(ctx, obj, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []Objective{MinPeriod, MinLatency} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ps.Solve(ctx, obj, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 12 {
			t.Errorf("warm prepared SP solve (%v): %.0f allocs, want <= 12", obj, allocs)
		}
	}
}

// TestPreparedCommSolveAllocs: warm prepared comm-pipeline and comm-fork
// solves stay within the clone-only budget, on both the heterogeneous
// exhaustive path and the homogeneous DP path.
func TestPreparedCommSolveAllocs(t *testing.T) {
	ctx := context.Background()
	p := fullmodel.NewPipeline([]float64{3, 1, 2, 2}, []float64{1, 2, 1, 0, 1})
	f := fullmodel.Fork{Root: 2, In: 1, Out0: 1, Weights: []float64{4, 2, 3}, Outs: []float64{1, 0, 2}}
	cases := []struct {
		name string
		pr   Problem
	}{
		{"pipeline-het", Problem{CommPipeline: &p, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: platform.New(1, 2, 1)}},
		{"pipeline-hom", Problem{CommPipeline: &p, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: platform.Homogeneous(3, 2)}},
		{"fork", Problem{CommFork: &f, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: platform.New(1, 2, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps, ok := Prepare(tc.pr, Options{})
			if !ok {
				t.Fatal("Prepare refused a communication-aware instance")
			}
			for _, obj := range []Objective{MinPeriod, MinLatency} {
				if _, err := ps.Solve(ctx, obj, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, obj := range []Objective{MinPeriod, MinLatency} {
				allocs := testing.AllocsPerRun(100, func() {
					if _, err := ps.Solve(ctx, obj, 0); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 8 {
					t.Errorf("warm prepared comm solve (%s, %v): %.0f allocs, want <= 8", tc.name, obj, allocs)
				}
			}
		})
	}
}

// TestOneShotHardSolveAllocs: a one-shot solve of an NP-hard cell is a
// prepared solve used once, and must cost no more than the kernel's own
// setup and search. One case per kind inside the exhaustive limits and
// one past them (7 processors exceed the fork caps; the pipeline caps
// stay out of reach, so its oversized path has no case). Ceilings are
// the counts measured before the one-shot path went through preparation,
// plus a small margin; want holds min-period, then min-latency.
func TestOneShotHardSolveAllocs(t *testing.T) {
	sp := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 3},
		workflow.SPStep{Name: "b", Weight: 2},
		workflow.SPStep{Name: "c", Weight: 4, After: workflow.After("a")},
		workflow.SPStep{Name: "d", Weight: 1, After: workflow.After("a", "b")},
		workflow.SPStep{Name: "e", Weight: 2, After: workflow.After("c", "d")},
	)
	pipe := workflow.NewPipeline(4, 2, 7, 3, 5)
	fork := workflow.NewFork(2, 3, 5, 7, 4)
	fj := workflow.NewForkJoin(2, 3, 5, 7, 4)
	cp := fullmodel.NewPipeline([]float64{3, 1, 2, 2}, []float64{1, 2, 1, 0, 1})
	cf := fullmodel.Fork{Root: 2, In: 1, Out0: 1, Weights: []float64{4, 2, 3}, Outs: []float64{1, 0, 2}}
	bw := &fullmodel.Bandwidth{Uniform: 2}
	small, big := platform.New(3, 2, 2, 1), platform.New(3, 2, 2, 1, 1, 2, 3)
	cases := []struct {
		name string
		pr   Problem
		want [2]float64
	}{
		{"pipeline", Problem{Pipeline: &pipe, Platform: small, AllowDataParallel: true}, [2]float64{24, 22}},
		{"fork", Problem{Fork: &fork, Platform: small}, [2]float64{44, 64}},
		{"fork/oversized", Problem{Fork: &fork, Platform: big}, [2]float64{433, 433}},
		{"fork-join", Problem{ForkJoin: &fj, Platform: small}, [2]float64{42, 66}},
		{"fork-join/oversized", Problem{ForkJoin: &fj, Platform: big}, [2]float64{67, 67}},
		{"sp", Problem{SP: &sp, Platform: small}, [2]float64{126, 118}},
		{"sp/oversized", Problem{SP: &sp, Platform: big}, [2]float64{200, 200}},
		{"comm-pipeline", Problem{CommPipeline: &cp, Bandwidth: bw, Platform: small}, [2]float64{31, 41}},
		{"comm-pipeline/oversized", Problem{CommPipeline: &cp, Bandwidth: bw, Platform: big}, [2]float64{54, 54}},
		{"comm-fork", Problem{CommFork: &cf, Bandwidth: bw, Platform: small}, [2]float64{47, 37}},
		{"comm-fork/oversized", Problem{CommFork: &cf, Bandwidth: bw, Platform: big}, [2]float64{56, 56}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		for i, obj := range []Objective{MinPeriod, MinLatency} {
			pr := tc.pr
			pr.Objective = obj
			sol, err := SolveContext(ctx, pr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if classificationOf(pr).Complexity.Polynomial() || sol.Exact != ExactlySolvable(pr, Options{}) {
				t.Fatalf("%s %v: fixture not on the intended NP-hard path (%v, exact %v)", tc.name, obj, sol.Method, sol.Exact)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := SolveContext(ctx, pr, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.want[i] {
				t.Errorf("one-shot %s solve (%v): %.0f allocs, want <= %.0f", tc.name, obj, allocs, tc.want[i])
			}
		}
	}
}
