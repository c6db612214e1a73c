package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/fullmodel"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// randomHardishProblem returns a random instance of any of the six graph
// kinds; most draws land on cells with the prepared capability (NP-hard
// legacy cells, SP decompositions, communication-aware cells), the rest
// exercise the polynomial fallback inside PreparedSolver.Solve.
func randomHardishProblem(rng *rand.Rand) Problem {
	return randomSizedProblem(rng, false)
}

// randomSizedProblem draws like randomHardishProblem; wide draws reach
// past the default exhaustive caps, with up to 7 processors (11 for half
// the pipelines) and three more stages, leaves or steps.
func randomSizedProblem(rng *rand.Rand, wide bool) Problem {
	pr := Problem{AllowDataParallel: rng.Intn(2) == 0}
	maxProcs, extra := 4, 0
	if wide {
		maxProcs, extra = 7, 3
	}
	procs := 1 + rng.Intn(maxProcs)
	if rng.Intn(3) == 0 {
		pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
	} else {
		pr.Platform = platform.Random(rng, procs, 4)
	}
	switch rng.Intn(6) {
	case 0:
		g := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pr.Pipeline = &g
		if wide && rng.Intn(2) == 0 {
			pr.Platform = platform.Random(rng, 11, 4)
		}
	case 1:
		g := workflow.RandomFork(rng, 1+rng.Intn(3+extra), 9)
		pr.Fork = &g
	case 2:
		g := workflow.RandomForkJoin(rng, 1+rng.Intn(2+extra), 9)
		pr.ForkJoin = &g
	case 3:
		g := workflow.RandomSP(rng, 1+rng.Intn(6+extra), 9, 4, 3)
		pr.SP = &g
		pr.AllowDataParallel = false
	case 4:
		n := 1 + rng.Intn(5+extra)
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(1 + rng.Intn(9))
		}
		data := make([]float64, n+1)
		for i := range data {
			data[i] = float64(rng.Intn(5))
		}
		p := fullmodel.NewPipeline(ws, data)
		pr.CommPipeline = &p
		pr.Bandwidth = &fullmodel.Bandwidth{Uniform: float64(1 + rng.Intn(4))}
		pr.AllowDataParallel = false
	default:
		leaves := rng.Intn(4 + extra)
		f := fullmodel.Fork{
			Root: float64(1 + rng.Intn(9)), In: float64(rng.Intn(3)), Out0: float64(rng.Intn(3)),
			Weights: make([]float64, leaves), Outs: make([]float64, leaves),
		}
		for i := range f.Weights {
			f.Weights[i] = float64(1 + rng.Intn(9))
			f.Outs[i] = float64(rng.Intn(3))
		}
		pr.CommFork = &f
		pr.Bandwidth = &fullmodel.Bandwidth{Uniform: float64(1 + rng.Intn(4))}
		pr.AllowDataParallel = false
	}
	return pr
}

// TestPreparedSolverMatchesSolveContext is the core-level byte-identity
// corpus: for every objective (bounded and unbounded), a prepared solver
// answering a shuffled sequence of solves must return exactly what
// SolveContext returns on the same problem. The last 40 draws reach past
// the default exhaustive caps, onto the oversized prepared paths. Every
// solve also checks ExactlySolvable against the exactness it reports.
func TestPreparedSolverMatchesSolveContext(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ctx := context.Background()
	prepared := 0
	oversized := map[string]int{} // prepared draws answered heuristically, by kind
	checkExact := func(trial int, pr Problem) Solution {
		t.Helper()
		sol, err := SolveContext(ctx, pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ExactlySolvable(pr, Options{}); got != sol.Exact {
			t.Fatalf("trial %d %v: ExactlySolvable = %v, solve reports exact %v (%v)", trial, pr.Objective, got, sol.Exact, sol.Method)
		}
		return sol
	}
	for trial := 0; trial < 100; trial++ {
		pr := randomSizedProblem(rng, trial >= 60)
		ps, ok := Prepare(pr, Options{})
		if !ok {
			// No prepared capability for this instance (every registered
			// cell polynomial, or a legacy kind past its caps): nothing
			// to compare.
			for _, obj := range []Objective{MinPeriod, MinLatency} {
				pr.Objective = obj
				checkExact(trial, pr)
			}
			continue
		}
		prepared++
		type solveCase struct {
			obj   Objective
			bound float64
		}
		cases := []solveCase{
			{MinPeriod, 0},
			{MinLatency, 0},
			{LatencyUnderPeriod, float64(1+rng.Intn(6)) / 2},
			{PeriodUnderLatency, float64(1+rng.Intn(8)) / 2},
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		// Solve each case twice: the repeat hits the prepared memos.
		cases = append(cases, cases...)
		for _, c := range cases {
			got, err := ps.Solve(ctx, c.obj, c.bound)
			if err != nil {
				t.Fatal(err)
			}
			sub := pr
			sub.Objective = c.obj
			sub.Bound = c.bound
			want := checkExact(trial, sub)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v bound=%g: prepared solve diverges\n got %+v\nwant %+v",
					trial, c.obj, c.bound, got, want)
			}
			if want.Method == MethodHeuristic && c.obj == MinPeriod {
				oversized[specOf(pr).Name]++
			}
		}
	}
	if prepared < 25 {
		t.Fatalf("only %d/100 trials exercised the prepared path; corpus too weak", prepared)
	}
	for _, kind := range []workflow.Kind{workflow.KindSP, workflow.KindCommPipeline, workflow.KindCommFork} {
		if oversized[kind.String()] == 0 {
			t.Errorf("no oversized prepared %v draw; corpus too weak (%v)", kind, oversized)
		}
	}
}

// TestPrepareRefusals: preparation must not engage where its contract
// cannot hold.
func TestPrepareRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	pipe := workflow.RandomPipeline(rng, 4, 9)
	hard := Problem{Pipeline: &pipe, Platform: platform.Random(rng, 3, 4), AllowDataParallel: true}

	if _, ok := Prepare(hard, Options{AnytimeBudget: time.Millisecond}); ok {
		t.Error("Prepare accepted an anytime budget; portfolio results are time-dependent")
	}
	if _, ok := Prepare(Problem{}, Options{}); ok {
		t.Error("Prepare accepted an invalid problem")
	}
	big := hard
	big.Platform = platform.Random(rng, 12, 4)
	if _, ok := Prepare(big, Options{}); ok {
		t.Error("Prepare accepted an instance beyond the exhaustive limits (heuristic path)")
	}
	poly := hard
	poly.AllowDataParallel = false
	poly.Platform = platform.Homogeneous(3, 2)
	if _, ok := Prepare(poly, Options{}); ok {
		t.Error("Prepare accepted an all-polynomial instance; there is nothing to share")
	}
	if _, ok := Prepare(hard, Options{}); !ok {
		t.Error("Prepare refused a small NP-hard instance it should accept")
	}
}

// TestPreparedSolverRejectsInvalidBound: the prepared fast path must
// fail on a non-positive bound exactly like SolveContext — same error
// kind, never a silent "infeasible".
func TestPreparedSolverRejectsInvalidBound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pipe := workflow.RandomPipeline(rng, 4, 9)
	pr := Problem{Pipeline: &pipe, Platform: platform.Random(rng, 3, 4), AllowDataParallel: true}
	ps, ok := Prepare(pr, Options{})
	if !ok {
		t.Fatal("Prepare refused a small NP-hard instance")
	}
	for _, bound := range []float64{0, -1} {
		_, err := ps.Solve(context.Background(), LatencyUnderPeriod, bound)
		if ErrKindOf(err) != ErrKindInvalidInstance {
			t.Errorf("bound %g: prepared Solve err = %v, want ErrKindInvalidInstance", bound, err)
		}
		sub := pr
		sub.Objective = LatencyUnderPeriod
		sub.Bound = bound
		if _, werr := SolveContext(context.Background(), sub, Options{}); ErrKindOf(werr) != ErrKindOf(err) {
			t.Errorf("bound %g: prepared err kind %v != SolveContext err kind %v", bound, ErrKindOf(err), ErrKindOf(werr))
		}
	}
}

// TestPreparedSolverFront: Front reports ok only on a cell with a front
// pass; there its latencies are those of ParetoFront (within the
// tolerance: the pass sums a point's latency in its own order), and the
// period-under-latency solve at each is the front's point. A pass cut
// short returns the context's error and leaves the solver as good as new.
func TestPreparedSolverFront(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pr := Problem{Pipeline: &pipe, Platform: platform.New(5, 4, 3, 3, 2, 2, 1, 1), AllowDataParallel: true}
	want, err := ParetoFront(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := Prepare(pr, Options{})
	if !ok {
		t.Fatal("Prepare refused a small NP-hard pipeline")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if lats, ok, err := ps.Front(cancelled); !ok || lats != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: (%v, %v, %v), want (nil, true, context.Canceled)", lats, ok, err)
	}
	lats, ok, err := ps.Front(context.Background())
	if !ok || err != nil || len(lats) != len(want) {
		t.Fatalf("Front: %d latencies, ok %v, err %v; ParetoFront has %d points", len(lats), ok, err, len(want))
	}
	for k, l := range lats {
		sol, err := ps.Solve(context.Background(), PeriodUnderLatency, l)
		if err != nil || !numeric.Eq(l, want[k].Cost.Latency) || !reflect.DeepEqual(sol, want[k]) {
			t.Errorf("point %d: latency %v, solve %+v (err %v); ParetoFront %+v", k, l, sol, err, want[k])
		}
	}

	fork := workflow.NewFork(2, 7, 3, 9, 4)
	fpr := Problem{Fork: &fork, Platform: platform.New(5, 4, 3, 2), AllowDataParallel: true}
	fps, ok := Prepare(fpr, Options{})
	if !ok {
		t.Fatal("Prepare refused a small NP-hard fork")
	}
	if lats, ok, err := fps.Front(context.Background()); ok || lats != nil || err != nil {
		t.Errorf("fork Front: (%v, %v, %v), want (nil, false, nil)", lats, ok, err)
	}
}
