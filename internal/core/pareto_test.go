package core

import (
	"context"
	"errors"
	"math/rand"
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

// TestParetoFrontWithCancelledWalk: a walk whose context dies after any
// of its batches returns the context's error and no front — not the
// points it found before the cut.
func TestParetoFrontWithCancelledWalk(t *testing.T) {
	p := workflow.NewPipeline(14, 4, 2, 4, 7)
	pr := Problem{Pipeline: &p, Platform: platform.New(3, 2, 2, 1), AllowDataParallel: true}
	calls := 0
	counting := func(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
		calls++
		return serialBatch(ctx, problems, opts)
	}
	full, err := ParetoFrontWith(context.Background(), pr, Options{}, counting)
	if err != nil || len(full) < 2 {
		t.Fatalf("staging walk: %d points, error %v; want at least 2 points", len(full), err)
	}
	for k := 1; k <= calls; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		batch := func(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
			sols, err := serialBatch(ctx, problems, opts)
			if n++; n == k {
				cancel() // the walk dies after its k-th batch
			}
			return sols, err
		}
		front, err := ParetoFrontWith(ctx, pr, Options{}, batch)
		cancel()
		if !errors.Is(err, context.Canceled) || front != nil {
			t.Errorf("walk cancelled after batch %d of %d returned %d points and error %v, want none and context.Canceled", k, calls, len(front), err)
		}
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
