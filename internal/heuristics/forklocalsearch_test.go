package heuristics

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestLocalSearchForkNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 12)
		pl := platform.Random(rng, 2+rng.Intn(3), 6)
		greedy, c0, err := HetForkJoinGreedy(joinless(f), false, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		start := greedy.Fork()
		for _, obj := range []ForkObjective{ForkMinPeriod, ForkMinLatency} {
			improved, c1, err := LocalSearchFork(f, pl, start, obj)
			if err != nil {
				t.Fatal(err)
			}
			if numeric.Greater(forkObjectiveValue(c1, obj), forkObjectiveValue(c0, obj)) {
				t.Fatalf("fork local search worsened objective %v: %v -> %v", obj, c0, c1)
			}
			if _, err := mapping.EvalFork(f, pl, improved); err != nil {
				t.Fatalf("fork local search produced invalid mapping: %v", err)
			}
		}
	}
}

func TestLocalSearchForkImprovesBadStart(t *testing.T) {
	// Everything on the slowest processor while two fast ones idle.
	f := workflow.NewFork(2, 9, 9, 1)
	pl := platform.New(1, 4, 4)
	start := mapping.ForkMapping{Blocks: []mapping.ForkBlock{
		mapping.NewForkBlock(true, []int{0, 1, 2}, mapping.Replicated, 0),
	}}
	before, err := mapping.EvalFork(f, pl, start)
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := LocalSearchFork(f, pl, start, ForkMinLatency)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Less(after.Latency, before.Latency) {
		t.Fatalf("fork local search failed to improve latency %v (stayed %v)", before.Latency, after.Latency)
	}
}

func TestLocalSearchForkSoundAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 2+rng.Intn(2), 4)
		greedy, _, err := HetForkJoinGreedy(joinless(f), false, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		start := greedy.Fork()
		_, after, err := LocalSearchFork(f, pl, start, ForkMinPeriod)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.ForkPeriod(f, pl, false)
		if !ok {
			t.Fatal("no optimum")
		}
		if numeric.Less(after.Period, opt.Cost.Period) {
			t.Fatalf("fork local search beats the optimum: %v < %v", after.Period, opt.Cost.Period)
		}
	}
}

func TestLocalSearchForkRejectsInvalidStart(t *testing.T) {
	f := workflow.NewFork(1, 2)
	pl := platform.Homogeneous(2, 1)
	if _, _, err := LocalSearchFork(f, pl, mapping.ForkMapping{}, ForkMinPeriod); err == nil {
		t.Error("invalid start accepted")
	}
}
