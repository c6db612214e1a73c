package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestParetoFrontSection2Hom(t *testing.T) {
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.Homogeneous(3, 1)
	front, err := ParetoFront(Problem{Pipeline: &p, Platform: pl, AllowDataParallel: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !FrontIsMonotone(front) {
		t.Fatalf("front not monotone: %v", frontCosts(front))
	}
	if len(front) < 2 {
		t.Fatalf("front too small: %v", frontCosts(front))
	}
	if !numeric.Eq(front[0].Cost.Period, 8) {
		t.Errorf("front[0].Period = %v, want 8", front[0].Cost.Period)
	}
	last := front[len(front)-1]
	if !numeric.Eq(last.Cost.Latency, 17) {
		t.Errorf("front[last].Latency = %v, want 17", last.Cost.Latency)
	}
}

func TestParetoFrontMatchesExhaustivePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := rng.Intn(2) == 0
		front, err := ParetoFront(Problem{Pipeline: &p, Platform: pl, AllowDataParallel: dp}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := exhaustive.PipelinePareto(p, pl, dp)
		if len(front) != len(ref) {
			t.Fatalf("trial %d: front size %d != exhaustive %d\nfront: %v\nref: %v",
				trial, len(front), len(ref), frontCosts(front), refCosts(ref))
		}
		for i := range ref {
			if !numeric.Eq(front[i].Cost.Period, ref[i].Cost.Period) ||
				!numeric.Eq(front[i].Cost.Latency, ref[i].Cost.Latency) {
				t.Fatalf("trial %d: point %d = %v, exhaustive %v", trial, i, front[i].Cost, ref[i].Cost)
			}
		}
	}
}

func TestParetoFrontFork(t *testing.T) {
	f := workflow.NewFork(2, 3, 5)
	pl := platform.New(2, 1, 1)
	front, err := ParetoFront(Problem{Fork: &f, Platform: pl, AllowDataParallel: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !FrontIsMonotone(front) {
		t.Fatalf("fork front not monotone: %v", frontCosts(front))
	}
	ref := exhaustive.ForkPareto(f, pl, true)
	if len(front) != len(ref) {
		t.Fatalf("fork front size %d != exhaustive %d (%v vs %v)",
			len(front), len(ref), frontCosts(front), forkRefCosts(ref))
	}
	for i := range ref {
		if !numeric.Eq(front[i].Cost.Period, ref[i].Cost.Period) ||
			!numeric.Eq(front[i].Cost.Latency, ref[i].Cost.Latency) {
			t.Fatalf("fork point %d = %v, exhaustive %v", i, front[i].Cost, ref[i].Cost)
		}
	}
}

func TestParetoFrontForkJoin(t *testing.T) {
	fj := workflow.HomogeneousForkJoin(2, 3, 2, 4)
	pl := platform.New(2, 1)
	front, err := ParetoFront(Problem{ForkJoin: &fj, Platform: pl}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 || !FrontIsMonotone(front) {
		t.Fatalf("fork-join front invalid: %v", frontCosts(front))
	}
	// Endpoints bracket the mono-criterion optima.
	bestP, _ := Solve(Problem{ForkJoin: &fj, Platform: pl, Objective: MinPeriod}, Options{})
	bestL, _ := Solve(Problem{ForkJoin: &fj, Platform: pl, Objective: MinLatency}, Options{})
	if !numeric.Eq(front[0].Cost.Period, bestP.Cost.Period) {
		t.Errorf("front[0].Period = %v, want %v", front[0].Cost.Period, bestP.Cost.Period)
	}
	if !numeric.Eq(front[len(front)-1].Cost.Latency, bestL.Cost.Latency) {
		t.Errorf("front[last].Latency = %v, want %v", front[len(front)-1].Cost.Latency, bestL.Cost.Latency)
	}
}

func TestParetoFrontRejectsInvalid(t *testing.T) {
	if _, err := ParetoFront(Problem{}, Options{}); err == nil {
		t.Error("graphless problem accepted")
	}
}

// TestParetoFrontWithCancelledTightening: a sweep whose context dies
// after the candidate batch, so that every tightening probe fails with
// the context's error, returns that error — not a front assembled from
// untightened candidates.
func TestParetoFrontWithCancelledTightening(t *testing.T) {
	p := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pr := Problem{Pipeline: &p, Platform: platform.New(5, 4, 3, 3, 2, 2, 1, 1), AllowDataParallel: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls, failed := 0, 0
	batch := func(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
		calls++
		if calls > 1 {
			failed++
			return nil, ctx.Err()
		}
		sols, err := serialBatch(ctx, problems, opts)
		cancel() // the sweep dies after its candidate batch
		return sols, err
	}
	front, err := ParetoFrontWith(ctx, pr, Options{}, batch)
	if !errors.Is(err, context.Canceled) || front != nil {
		t.Fatalf("cancelled sweep returned a front of %d points and error %v, want none and context.Canceled", len(front), err)
	}
	if failed == 0 {
		t.Fatal("no tightening probe ran")
	}
}

func frontCosts(front []Solution) []Cost2 {
	out := make([]Cost2, len(front))
	for i, s := range front {
		out[i] = Cost2{s.Cost.Period, s.Cost.Latency}
	}
	return out
}

func refCosts(ref []exhaustive.PipelineResult) []Cost2 {
	out := make([]Cost2, len(ref))
	for i, s := range ref {
		out[i] = Cost2{s.Cost.Period, s.Cost.Latency}
	}
	return out
}

func forkRefCosts(ref []exhaustive.ForkResult) []Cost2 {
	out := make([]Cost2, len(ref))
	for i, s := range ref {
		out[i] = Cost2{s.Cost.Period, s.Cost.Latency}
	}
	return out
}

// Cost2 is a compact (period, latency) pair for test failure messages.
type Cost2 struct{ P, L float64 }

// naivePeriodsFromWeights is periodsFromWeights before it deduplicated
// its weights and divisors: one quotient per weight, speed and count,
// then one per weight and speed sum. It is the oracle of
// TestPeriodsFromWeightsMatchesNaive.
func naivePeriodsFromWeights(weights []float64, pl platform.Platform) []float64 {
	speeds := numeric.DedupSorted(append([]float64(nil), pl.Speeds...))
	p := pl.Processors()
	var cands []float64
	for _, w := range weights {
		for _, s := range speeds {
			for k := 1; k <= p; k++ {
				cands = append(cands, w/(float64(k)*s))
			}
		}
	}
	sums := subsetSpeedSums(pl)
	for _, w := range weights {
		for _, s := range sums {
			cands = append(cands, w/s)
		}
	}
	return numeric.DedupSorted(cands)
}

// TestPeriodsFromWeightsMatchesNaive: the candidate periods are bit for
// bit the naive formulation's, over the block weights of pipelines,
// forks and fork-joins with integer and fractional weights, on
// integer-speed, fractional-speed and homogeneous platforms of up to 16
// processors (past 12, speed sums are prefix sums).
func TestPeriodsFromWeightsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	draw := func(n int, frac bool) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(1 + rng.Intn(10))
			if frac {
				ws[i] = 0.25 + 9*rng.Float64()
			}
		}
		return ws
	}
	for trial := 0; trial < 300; trial++ {
		procs := 1 + rng.Intn(16)
		var pl platform.Platform
		switch trial % 3 {
		case 0:
			pl = platform.Random(rng, procs, 5)
		case 1:
			speeds := make([]float64, procs)
			for k := range speeds {
				speeds[k] = 0.5 + 4*rng.Float64()
			}
			pl = platform.New(speeds...)
		default:
			pl = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
		}
		frac := trial%5 == 0
		var weights []float64
		switch trial % 4 {
		case 0, 1:
			ws := draw(1+rng.Intn(10), frac)
			for i := range ws {
				w := 0.0
				for _, x := range ws[i:] {
					w += x
					weights = append(weights, w)
				}
			}
		case 2:
			weights = forkBlockWeights(float64(1+rng.Intn(10)), 0, false, draw(rng.Intn(7), frac))
		default:
			weights = forkBlockWeights(float64(1+rng.Intn(10)), float64(1+rng.Intn(10)), true, draw(rng.Intn(7), frac))
		}
		if len(weights) == 0 {
			continue
		}
		want := naivePeriodsFromWeights(weights, pl)
		if got := periodsFromWeights(weights, pl); !slices.Equal(got, want) {
			t.Fatalf("trial %d: weights %v on %v: %d candidates, naive %d\n got %v\nwant %v", trial, weights, pl.Speeds, len(got), len(want), got, want)
		}
	}
}
