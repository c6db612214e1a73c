package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// spFromPipeline expresses a legacy pipeline as a chain-shaped SP graph
// in canonical stage order.
func spFromPipeline(p workflow.Pipeline) workflow.SP {
	steps := make([]workflow.SPStep, len(p.Weights))
	for i, w := range p.Weights {
		steps[i] = workflow.SPStep{Name: fmt.Sprintf("s%d", i), Weight: w}
		if i > 0 {
			steps[i].After = []string{fmt.Sprintf("s%d", i-1)}
		}
	}
	return workflow.NewSP(steps...)
}

// spFromFork expresses a legacy fork as an SP graph: the root step, then
// the leaves in canonical order.
func spFromFork(f workflow.Fork) workflow.SP {
	steps := make([]workflow.SPStep, 0, 1+len(f.Weights))
	steps = append(steps, workflow.SPStep{Name: "root", Weight: f.Root})
	for i, w := range f.Weights {
		steps = append(steps, workflow.SPStep{
			Name: fmt.Sprintf("l%d", i), Weight: w, After: []string{"root"},
		})
	}
	return workflow.NewSP(steps...)
}

// spFromForkJoin adds the join step after every leaf.
func spFromForkJoin(fj workflow.ForkJoin) workflow.SP {
	steps := make([]workflow.SPStep, 0, 2+len(fj.Weights))
	steps = append(steps, workflow.SPStep{Name: "root", Weight: fj.Root})
	after := make([]string, len(fj.Weights))
	for i, w := range fj.Weights {
		steps = append(steps, workflow.SPStep{
			Name: fmt.Sprintf("l%d", i), Weight: w, After: []string{"root"},
		})
		after[i] = fmt.Sprintf("l%d", i)
	}
	steps = append(steps, workflow.SPStep{Name: "join", Weight: fj.Join, After: after})
	return workflow.NewSP(steps...)
}

// TestSPReductionMatchesLegacySolvers is the decomposition-equivalence
// corpus: a legacy graph expressed as an SP graph solves to the same
// cost, method and exactness, with the embedded legacy mapping identical
// to solving the legacy instance directly.
func TestSPReductionMatchesLegacySolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}
	for trial := 0; trial < 24; trial++ {
		obj := objs[trial%4]
		oversized := trial%2 == 1
		legacy := Problem{Objective: obj, Platform: platform.Random(rng, 2+rng.Intn(3), 5)}
		if oversized {
			legacy.Platform = platform.Random(rng, 8+rng.Intn(4), 5)
		}
		var g workflow.SP
		var wantReduced workflow.Kind
		switch trial % 3 {
		case 0:
			p := workflow.RandomPipeline(rng, 3+rng.Intn(4), 9)
			legacy.Pipeline = &p
			g, wantReduced = spFromPipeline(p), workflow.KindPipeline
		case 1:
			// At least two leaves: a one-leaf fork is a chain and reduces
			// as a pipeline instead.
			f := workflow.RandomFork(rng, 2+rng.Intn(3), 9)
			legacy.Fork = &f
			g, wantReduced = spFromFork(f), workflow.KindFork
		default:
			fj := workflow.RandomForkJoin(rng, 2+rng.Intn(3), 9)
			legacy.ForkJoin = &fj
			g, wantReduced = spFromForkJoin(fj), workflow.KindForkJoin
		}
		if obj.Bounded() {
			legacy.Bound = 500
		}
		sp := legacy
		sp.Pipeline, sp.Fork, sp.ForkJoin = nil, nil, nil
		sp.SP = &g

		want, err := Solve(legacy, Options{})
		if err != nil {
			t.Fatalf("trial %d: legacy solve: %v", trial, err)
		}
		got, err := Solve(sp, Options{})
		if err != nil {
			t.Fatalf("trial %d: sp solve: %v", trial, err)
		}
		if got.Cost != want.Cost || got.Method != want.Method || got.Exact != want.Exact || got.Feasible != want.Feasible {
			t.Errorf("trial %d (%v): sp solve (%v, %v, exact %v) != legacy (%v, %v, exact %v)",
				trial, wantReduced, got.Cost, got.Method, got.Exact, want.Cost, want.Method, want.Exact)
			continue
		}
		if !want.Feasible {
			continue
		}
		if got.SPMapping == nil || got.SPMapping.Reduced != wantReduced {
			t.Errorf("trial %d: sp mapping = %+v, want a %v reduction", trial, got.SPMapping, wantReduced)
			continue
		}
		var embedded, direct any
		switch wantReduced {
		case workflow.KindPipeline:
			embedded, direct = got.SPMapping.Pipeline, want.PipelineMapping
		case workflow.KindFork:
			embedded, direct = got.SPMapping.Fork, want.ForkMapping
		default:
			embedded, direct = got.SPMapping.ForkJoin, want.ForkJoinMapping
		}
		if !reflect.DeepEqual(embedded, direct) {
			t.Errorf("trial %d (%v): embedded mapping %v != direct legacy mapping %v",
				trial, wantReduced, embedded, direct)
		}
	}
}

// irreducibleSP returns the chorded diamond: series-parallel but none of
// the legacy shapes.
func irreducibleSP() workflow.SP {
	return workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
		workflow.SPStep{Name: "c", Weight: 3, After: []string{"a", "b"}},
		workflow.SPStep{Name: "d", Weight: 1, After: []string{"b", "c"}},
	)
}

// TestSPIrreducibleExhaustiveAndAnytime: within the limits the block
// enumeration is exact, and the budgeted path certifies the same optimum
// with gap 0.
func TestSPIrreducibleExhaustiveAndAnytime(t *testing.T) {
	g := irreducibleSP()
	pr := Problem{SP: &g, Platform: platform.New(1, 2), Objective: MinPeriod}
	exact, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact || exact.Method != MethodExhaustive || !exact.Feasible {
		t.Fatalf("exhaustive solve = %+v, want exact", exact)
	}
	if exact.SPMapping == nil || exact.SPMapping.Reduced != workflow.KindSP || len(exact.SPMapping.Blocks) == 0 {
		t.Fatalf("mapping = %+v, want direct sp blocks", exact.SPMapping)
	}
	any, err := Solve(pr, Options{AnytimeBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !any.Anytime || !any.Exact || any.Gap != 0 {
		t.Fatalf("anytime solve = %+v, want certified optimum", any)
	}
	if any.Cost.Period != exact.Cost.Period {
		t.Errorf("anytime period %g != exhaustive optimum %g", any.Cost.Period, exact.Cost.Period)
	}
}

// TestSPOversizedIrreducibleAnytimeGap: beyond the limits the budgeted
// path yields a feasible incumbent with a certified non-negative gap, no
// worse than the unbudgeted heuristic.
func TestSPOversizedIrreducibleAnytimeGap(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	// Random SP graphs above the 6-step limit; skip those that happen to
	// reduce (the decomposition path is covered elsewhere).
	for trial := 0; trial < 6; trial++ {
		g := workflow.RandomSP(rng, 8+rng.Intn(4), 9, 4, 3)
		pr := Problem{SP: &g, Platform: platform.Random(rng, 3+rng.Intn(3), 5), Objective: MinPeriod}
		heur, err := Solve(pr, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if heur.Method != MethodHeuristic {
			continue // reduced onto a legacy shape
		}
		any, err := Solve(pr, Options{AnytimeBudget: 50 * time.Millisecond})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !any.Anytime || !any.Feasible {
			t.Fatalf("trial %d: anytime solve = %+v, want feasible incumbent", trial, any)
		}
		if any.Gap < 0 {
			t.Errorf("trial %d: negative gap %g", trial, any.Gap)
		}
		if any.Cost.Period > heur.Cost.Period*(1+1e-9) {
			t.Errorf("trial %d: anytime period %g worse than heuristic %g", trial, any.Cost.Period, heur.Cost.Period)
		}
	}
}

// TestSPValidation: the SP kind rejects data-parallelism and bandwidth.
func TestSPValidation(t *testing.T) {
	g := irreducibleSP()
	pr := Problem{SP: &g, Platform: platform.New(1, 2), Objective: MinPeriod, AllowDataParallel: true}
	if err := pr.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("AllowDataParallel accepted on sp: %v", err)
	}
	pr = Problem{SP: &g, Platform: platform.New(1, 2), Objective: MinPeriod, Bandwidth: &fullmodel.Bandwidth{Uniform: 1}}
	if err := pr.Validate(); ErrKindOf(err) != ErrKindInvalidInstance {
		t.Errorf("Bandwidth accepted on sp: %v", err)
	}
}

// TestPrepareSPMatchesReduced: an SP instance that reduces exactly to a
// legacy kind prepares exactly when the reduced instance does, and its
// prepared solves match SolveContext. The first case reduces to a
// heterogeneous fork on a homogeneous platform: its min-period cell is
// the polynomial Theorem 10 cell, while the other objectives are the
// preparable Theorem 12 cells.
func TestPrepareSPMatchesReduced(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sps := []workflow.SP{spFromFork(workflow.NewFork(2, 3, 5, 7))}
	plats := []platform.Platform{platform.Homogeneous(3, 2)}
	for len(sps) < 40 {
		switch rng.Intn(3) {
		case 0:
			sps = append(sps, spFromPipeline(workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)))
		case 1:
			sps = append(sps, spFromFork(workflow.RandomFork(rng, 1+rng.Intn(6), 9)))
		default:
			sps = append(sps, spFromForkJoin(workflow.RandomForkJoin(rng, 1+rng.Intn(5), 9)))
		}
		procs := 1 + rng.Intn(7)
		if rng.Intn(2) == 0 {
			plats = append(plats, platform.Homogeneous(procs, float64(1+rng.Intn(3))))
		} else {
			plats = append(plats, platform.Random(rng, procs, 4))
		}
	}
	ctx := context.Background()
	for i := range sps {
		pr := Problem{SP: &sps[i], Platform: plats[i]}
		red, ok := spdecomp.Reduce(sps[i])
		if !ok {
			t.Fatalf("case %d: fixture does not reduce", i)
		}
		ps, got := Prepare(pr, Options{})
		_, want := Prepare(spSubProblem(pr, red), Options{})
		if got != want || i == 0 && !got {
			t.Fatalf("case %d (reduces to %v on %v): Prepare(sp) = %v, Prepare(reduced) = %v",
				i, red.Kind, plats[i].Speeds, got, want)
		}
		if !got {
			continue
		}
		for _, obj := range []Objective{MinPeriod, MinLatency, LatencyUnderPeriod} {
			pr.Objective, pr.Bound = obj, 0
			if obj.Bounded() {
				pr.Bound = 12
			}
			gotSol, err := ps.Solve(ctx, obj, pr.Bound)
			if err != nil {
				t.Fatal(err)
			}
			wantSol, err := SolveContext(ctx, pr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSol, wantSol) {
				t.Fatalf("case %d %v: prepared solve diverges\n got %+v\nwant %+v", i, obj, gotSol, wantSol)
			}
		}
	}
}
