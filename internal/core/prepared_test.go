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
		// Solve each case twice: the repeat re-runs the kernel on the
		// scratch the other cases left behind.
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
// pass — the exact pipeline, fork, fork-join and comm-pipeline cells;
// there its latencies are those of ParetoFront (within the tolerance:
// the pass sums a point's latency in its own order), and the
// period-under-latency solve at each is the front's point. A pass cut
// short returns the context's error and leaves the solver as good as new.
// An irreducible SP cell, whose sweep walks the two bounded solves, has
// no front pass.
func TestPreparedSolverFront(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	fork := workflow.NewFork(5, 2, 2, 1, 5, 1)
	fj := workflow.NewForkJoin(8, 6, 2, 4, 1, 6)
	cp := fullmodel.NewPipeline([]float64{6, 3, 8, 2, 5, 7}, []float64{2, 1, 3, 4, 1, 2, 3})
	bw := &fullmodel.Bandwidth{
		Links: [][]float64{{0, 3, 1, 2, 4}, {2, 0, 5, 1, 3}, {4, 1, 0, 2, 2}, {1, 3, 2, 0, 5}, {3, 2, 4, 1, 0}},
		In:    []float64{2, 4, 1, 3, 5}, Out: []float64{3, 1, 4, 2, 2},
	}
	for _, tc := range []struct {
		name string
		pr   Problem
	}{
		{"pipeline", Problem{Pipeline: &pipe, Platform: platform.New(5, 4, 3, 3, 2, 2, 1, 1), AllowDataParallel: true}},
		{"fork", Problem{Fork: &fork, Platform: platform.New(4, 2, 2, 1), AllowDataParallel: true}},
		{"fork-join", Problem{ForkJoin: &fj, Platform: platform.New(5, 4, 4, 5), AllowDataParallel: true}},
		{"comm-pipeline", Problem{CommPipeline: &cp, Platform: platform.New(5, 4, 3, 2, 1), Bandwidth: bw}},
	} {
		want, err := ParetoFront(tc.pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps, ok := Prepare(tc.pr, Options{})
		if !ok {
			t.Fatalf("%s: Prepare refused a small NP-hard instance", tc.name)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if lats, ok, err := ps.Front(cancelled); !ok || lats != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled pass: (%v, %v, %v), want (nil, true, context.Canceled)", tc.name, lats, ok, err)
		}
		lats, ok, err := ps.Front(context.Background())
		if !ok || err != nil || len(lats) != len(want) || len(want) < 2 {
			t.Fatalf("%s: Front: %d latencies, ok %v, err %v; ParetoFront has %d points", tc.name, len(lats), ok, err, len(want))
		}
		for k, l := range lats {
			sol, err := ps.Solve(context.Background(), PeriodUnderLatency, l)
			if err != nil || !numeric.Eq(l, want[k].Cost.Latency) || !reflect.DeepEqual(sol, want[k]) {
				t.Errorf("%s: point %d: latency %v, solve %+v (err %v); ParetoFront %+v", tc.name, k, l, sol, err, want[k])
			}
		}
	}

	sp := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 3},
		workflow.SPStep{Name: "b", Weight: 2},
		workflow.SPStep{Name: "c", Weight: 4, After: workflow.After("a")},
		workflow.SPStep{Name: "d", Weight: 1, After: workflow.After("a", "b")},
		workflow.SPStep{Name: "e", Weight: 2, After: workflow.After("c", "d")},
	)
	sps, ok := Prepare(Problem{SP: &sp, Platform: platform.New(3, 2, 2, 1)}, Options{})
	if !ok {
		t.Fatal("Prepare refused a small irreducible SP")
	}
	if lats, ok, err := sps.Front(context.Background()); ok || lats != nil || err != nil {
		t.Errorf("sp Front: (%v, %v, %v), want (nil, false, nil)", lats, ok, err)
	}
}

// TestPreparedInterleavedIdentity: a prepared solver keeps no per-bound
// results, so every repeat re-runs its kernel on scratch that another
// bound, or another worker count, left behind. For each of the six kinds
// on an in-limit instance, one solver answers A, B, A for several bound
// pairs, serially and then at three workers, and every answer must equal
// a fresh SolveContext. A caller that overwrites the slices of a
// returned mapping (the ones the engine's cloneSolution copies) must not
// change the next answer either.
func TestPreparedInterleavedIdentity(t *testing.T) {
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
	pl := platform.New(3, 2, 2, 1)
	cases := []struct {
		name string
		pr   Problem
	}{
		{"pipeline", Problem{Pipeline: &pipe, Platform: pl, AllowDataParallel: true}},
		{"fork", Problem{Fork: &fork, Platform: pl, AllowDataParallel: true}},
		{"fork-join", Problem{ForkJoin: &fj, Platform: pl}},
		{"sp", Problem{SP: &sp, Platform: pl}},
		{"comm-pipeline", Problem{CommPipeline: &cp, Bandwidth: bw, Platform: pl}},
		{"comm-fork", Problem{CommFork: &cf, Bandwidth: bw, Platform: pl}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func(obj Objective, bound float64) Solution {
				t.Helper()
				pr := tc.pr
				pr.Objective, pr.Bound = obj, bound
				sol, err := SolveContext(ctx, pr, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return sol
			}
			per, lat := fresh(MinPeriod, 0), fresh(MinLatency, 0)
			if !per.Exact || !lat.Exact || per.Method == MethodHeuristic {
				t.Fatalf("fixture not on the exact path (%v, exact %v)", per.Method, per.Exact)
			}
			P, L := per.Cost.Period, lat.Cost.Latency
			type bounded struct {
				obj   Objective
				bound float64
			}
			pairs := [][2]bounded{
				{{LatencyUnderPeriod, P}, {LatencyUnderPeriod, 2 * P}},
				{{PeriodUnderLatency, 1.5 * L}, {PeriodUnderLatency, 3 * L}},
				{{MinPeriod, 0}, {MinLatency, 0}},
				{{LatencyUnderPeriod, 1.5 * P}, {PeriodUnderLatency, 2 * L}},
			}
			ps, ok := Prepare(tc.pr, Options{})
			if !ok {
				t.Fatal("Prepare refused an in-limit NP-hard instance")
			}
			for _, workers := range []int{1, 3} {
				ps.SetParallelism(workers)
				for _, pair := range pairs {
					for _, c := range []bounded{pair[0], pair[1], pair[0]} {
						got, err := ps.Solve(ctx, c.obj, c.bound)
						if err != nil {
							t.Fatal(err)
						}
						want := fresh(c.obj, c.bound)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("workers=%d %v bound=%g: prepared solve diverges\n got %+v\nwant %+v",
								workers, c.obj, c.bound, got, want)
						}
						if !got.Feasible {
							continue
						}
						scribble(&got)
						again, err := ps.Solve(ctx, c.obj, c.bound)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(again, want) {
							t.Fatalf("workers=%d %v bound=%g: solve after overwriting the last answer diverges\n got %+v\nwant %+v",
								workers, c.obj, c.bound, again, want)
						}
					}
				}
			}
		})
	}
}

// scribble overwrites every element of the mapping slices the engine's
// cloneSolution copies; the processor lists inside them are shared and
// read-only, so it replaces the elements that hold them instead.
func scribble(s *Solution) {
	if m := s.PipelineMapping; m != nil {
		clear(m.Intervals)
	}
	if m := s.ForkMapping; m != nil {
		clear(m.Blocks)
	}
	if m := s.ForkJoinMapping; m != nil {
		clear(m.Blocks)
	}
	if m := s.SPMapping; m != nil {
		clear(m.Order)
		clear(m.Blocks)
	}
	if m := s.CommPipelineMapping; m != nil {
		for i := range m.Bounds {
			m.Bounds[i] = -1
		}
		for i := range m.Alloc {
			m.Alloc[i] = -1
		}
	}
	if m := s.CommForkMapping; m != nil {
		clear(m.Blocks)
		for i := range m.SendOrder {
			m.SendOrder[i] = -1
		}
	}
}
