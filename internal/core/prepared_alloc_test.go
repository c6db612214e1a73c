package core

import (
	"context"
	"testing"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// Allocation ceilings for warm prepared solves. A warm solve re-runs the
// kernel's search on the prepared scratch — repeated bounds are answered
// by the engine's result cache, not by the prepared solver — so it pays
// for the search and the mapping it returns, never for re-deriving DP
// tables, candidate sets, or platform tables. Each check therefore sets
// the warm count against the same fixture's one-shot solve, which builds
// all of those, and under a fixed ceiling with small headroom over the
// measured cost that sits below every one-shot count.

// warmBelowOneShot solves pr under obj once on ps (the warm-up), then
// fails t unless a warm solve allocates at most ceiling objects and
// strictly fewer than a one-shot SolveContext of the same problem.
func warmBelowOneShot(t *testing.T, name string, ps *PreparedSolver, pr Problem, obj Objective, ceiling float64) {
	t.Helper()
	ctx := context.Background()
	if _, err := ps.Solve(ctx, obj, 0); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, err := ps.Solve(ctx, obj, 0); err != nil {
			t.Fatal(err)
		}
	})
	pr.Objective = obj
	oneShot := testing.AllocsPerRun(100, func() {
		if _, err := SolveContext(ctx, pr, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if warm > ceiling {
		t.Errorf("warm prepared %s solve (%v): %.0f allocs, want <= %.0f", name, obj, warm, ceiling)
	}
	if warm >= oneShot {
		t.Errorf("warm prepared %s solve (%v): %.0f allocs, not below the one-shot solve's %.0f", name, obj, warm, oneShot)
	}
}

// TestPreparedSPSolveAllocs: warm prepared solves of an irreducible SP
// instance pay for the block search only (33/26 allocs measured against
// 116/109 one-shot, min-period/min-latency).
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
	for _, obj := range []Objective{MinPeriod, MinLatency} {
		warmBelowOneShot(t, "SP", ps, pr, obj, 40)
	}
}

// TestPreparedCommSolveAllocs: warm prepared comm-pipeline and comm-fork
// solves pay for the search only, on both the heterogeneous exhaustive
// path and the homogeneous DP path (min-period/min-latency measured:
// pipeline-het 9/15 against 25/31 one-shot, pipeline-hom 7/5 against
// 39/32, fork 18/9 against 36/27).
func TestPreparedCommSolveAllocs(t *testing.T) {
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
				warmBelowOneShot(t, "comm "+tc.name, ps, tc.pr, obj, 20)
			}
		})
	}
}

// TestOneShotHardSolveAllocs: a one-shot solve of an NP-hard cell is a
// prepared solve used once, and must cost no more than the kernel's own
// setup and search. One case per kind inside the exhaustive limits and
// one past them (7 processors exceed the fork caps; the pipeline caps
// stay out of reach, so its oversized path has no case). The in-limit
// ceilings are the measured counts plus one, below the counts of a
// kernel that allocated a per-bound result memo on every solve; the
// oversized ceilings are the counts measured before the one-shot path
// went through preparation, plus a small margin. want holds min-period,
// then min-latency. The poly rows pin the polynomial fork and fork-join
// cells (Theorems 10, 11 and 14) at their measured counts: a fork's
// answer is converted to a fork mapping once, and no more. The fork-join
// rows count ForkJoin.Validate and IsHomogeneous reading the leaf weights
// in place: the poly rows at the measured count, the others at it plus
// one.
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
	homFork := workflow.NewFork(2, 3, 3, 3, 3)
	homFJ := workflow.NewForkJoin(2, 4, 3, 3, 3, 3)
	cp := fullmodel.NewPipeline([]float64{3, 1, 2, 2}, []float64{1, 2, 1, 0, 1})
	cf := fullmodel.Fork{Root: 2, In: 1, Out0: 1, Weights: []float64{4, 2, 3}, Outs: []float64{1, 0, 2}}
	bw := &fullmodel.Bandwidth{Uniform: 2}
	small, big := platform.New(3, 2, 2, 1), platform.New(3, 2, 2, 1, 1, 2, 3)
	hom := platform.Homogeneous(4, 2)
	cases := []struct {
		name string
		pr   Problem
		want [2]float64
		poly bool
	}{
		{"fork/theorems-10-11", Problem{Fork: &homFork, Platform: hom}, [2]float64{6, 146}, true},
		{"fork/theorems-10-11/dp", Problem{Fork: &homFork, Platform: hom, AllowDataParallel: true}, [2]float64{6, 112}, true},
		{"fork/theorem-14", Problem{Fork: &homFork, Platform: small}, [2]float64{40, 47}, true},
		{"fork-join/theorems-10-11", Problem{ForkJoin: &homFJ, Platform: hom}, [2]float64{5, 582}, true},
		{"fork-join/theorems-10-11/dp", Problem{ForkJoin: &homFJ, Platform: hom, AllowDataParallel: true}, [2]float64{5, 580}, true},
		{"fork-join/theorem-14", Problem{ForkJoin: &homFJ, Platform: small}, [2]float64{60, 66}, true},
		{"pipeline", Problem{Pipeline: &pipe, Platform: small, AllowDataParallel: true}, [2]float64{19, 16}, false},
		{"fork", Problem{Fork: &fork, Platform: small}, [2]float64{39, 59}, false},
		{"fork/oversized", Problem{Fork: &fork, Platform: big}, [2]float64{433, 433}, false},
		{"fork-join", Problem{ForkJoin: &fj, Platform: small}, [2]float64{30, 54}, false},
		{"fork-join/oversized", Problem{ForkJoin: &fj, Platform: big}, [2]float64{45, 45}, false},
		{"sp", Problem{SP: &sp, Platform: small}, [2]float64{117, 110}, false},
		{"sp/oversized", Problem{SP: &sp, Platform: big}, [2]float64{200, 200}, false},
		{"comm-pipeline", Problem{CommPipeline: &cp, Bandwidth: bw, Platform: small}, [2]float64{23, 33}, false},
		{"comm-pipeline/oversized", Problem{CommPipeline: &cp, Bandwidth: bw, Platform: big}, [2]float64{54, 54}, false},
		{"comm-fork", Problem{CommFork: &cf, Bandwidth: bw, Platform: small}, [2]float64{37, 28}, false},
		{"comm-fork/oversized", Problem{CommFork: &cf, Bandwidth: bw, Platform: big}, [2]float64{56, 56}, false},
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
			if classificationOf(pr).Complexity.Polynomial() != tc.poly || sol.Exact != ExactlySolvable(pr, Options{}) {
				t.Fatalf("%s %v: fixture not on the intended path (%v, exact %v)", tc.name, obj, sol.Method, sol.Exact)
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
