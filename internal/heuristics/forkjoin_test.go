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

func TestHetForkJoinGreedyValidAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 2+rng.Intn(2), 5)
		for _, minPeriod := range []bool{true, false} {
			m, c, err := HetForkJoinGreedy(fj, true, pl, minPeriod)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mapping.EvalForkJoin(fj, pl, m)
			if err != nil {
				t.Fatalf("greedy mapping invalid: %v", err)
			}
			if !numeric.Eq(got.Period, c.Period) || !numeric.Eq(got.Latency, c.Latency) {
				t.Fatalf("reported %v, evaluated %v", c, got)
			}
			if minPeriod {
				opt, ok := exhaustive.ForkJoinPeriod(fj, pl, false)
				if ok && numeric.Less(c.Period, opt.Cost.Period) {
					t.Fatalf("greedy beats optimum: %v < %v", c.Period, opt.Cost.Period)
				}
			} else {
				opt, ok := exhaustive.ForkJoinLatency(fj, pl, false)
				if ok && numeric.Less(c.Latency, opt.Cost.Latency) {
					t.Fatalf("greedy beats optimum: %v < %v", c.Latency, opt.Cost.Latency)
				}
			}
		}
	}
}

func TestHetForkJoinGreedyBeatsSingleProcessorWhenSpread(t *testing.T) {
	// Two heavy independent leaves and a second processor: the greedy must
	// spread them rather than serialize everything.
	fj := workflow.NewForkJoin(1, 1, 8, 8)
	pl := platform.Homogeneous(2, 1)
	_, c, err := HetForkJoinGreedy(fj, true, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	serialLatency := fj.TotalWork() / 1 // 18 on one processor
	if !numeric.Less(c.Latency, serialLatency) {
		t.Fatalf("greedy latency %v does not beat the serial %v", c.Latency, serialLatency)
	}
}

func TestHetForkJoinGreedyRejectsInvalid(t *testing.T) {
	if _, _, err := HetForkJoinGreedy(workflow.NewForkJoin(0, 1, 1), true, platform.New(1), true); err == nil {
		t.Error("invalid fork-join accepted")
	}
	if _, _, err := HetForkJoinGreedy(workflow.NewForkJoin(1, 1, 1), true, platform.New(), true); err == nil {
		t.Error("empty platform accepted")
	}
}
