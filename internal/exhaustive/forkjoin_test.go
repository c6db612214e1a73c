package exhaustive

import (
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestForkJoinPeriodHomPlatform(t *testing.T) {
	// Section 6.3: replicating the whole graph on all processors still
	// gives the optimal period.
	fj := workflow.NewForkJoin(2, 4, 3, 3)
	pl := platform.Homogeneous(3, 1)
	res, ok := ForkJoinPeriod(fj, pl, true)
	if !ok || !numeric.Eq(res.Cost.Period, 4) { // 12/3
		t.Fatalf("period = %v, want 4 (mapping %v)", res.Cost.Period, res.Mapping)
	}
}

func TestForkJoinLatencySingleProcessor(t *testing.T) {
	fj := workflow.NewForkJoin(1, 2, 3)
	pl := platform.New(2)
	res, ok := ForkJoinLatency(fj, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 3) { // 6/2
		t.Fatalf("latency = %v, want 3", res.Cost.Latency)
	}
}

func TestForkJoinLatencyBeatsSingleProcWithTwo(t *testing.T) {
	// Root 1, leaves 3 and 3, join 1 on two unit processors. Best split:
	// {S0,S1,Sjoin} vs {S2}: leafDone = max(1+3, (1+3)/1) = 4,
	// latency = 4 + 1 = 5, versus 8 on one processor.
	fj := workflow.NewForkJoin(1, 1, 3, 3)
	pl := platform.Homogeneous(2, 1)
	res, ok := ForkJoinLatency(fj, pl, false)
	if !ok || !numeric.Eq(res.Cost.Latency, 5) {
		t.Fatalf("latency = %v, want 5 (mapping %v)", res.Cost.Latency, res.Mapping)
	}
}

func TestForkJoinBoundsConsistency(t *testing.T) {
	fj := workflow.NewForkJoin(2, 2, 4, 4)
	pl := platform.Homogeneous(2, 1)
	bestL, ok := ForkJoinLatency(fj, pl, false)
	if !ok {
		t.Fatal("no mapping")
	}
	bestP, ok := ForkJoinPeriod(fj, pl, false)
	if !ok {
		t.Fatal("no mapping")
	}
	// Constrained optima sit between the mono-criterion optima.
	res, ok := ForkJoinLatencyUnderPeriod(fj, pl, false, bestP.Cost.Period)
	if !ok {
		t.Fatal("latency under optimal period infeasible")
	}
	if numeric.Less(res.Cost.Latency, bestL.Cost.Latency) {
		t.Fatalf("constrained latency %v beats optimum %v", res.Cost.Latency, bestL.Cost.Latency)
	}
	res2, ok := ForkJoinPeriodUnderLatency(fj, pl, false, bestL.Cost.Latency)
	if !ok {
		t.Fatal("period under optimal latency infeasible")
	}
	if numeric.Less(res2.Cost.Period, bestP.Cost.Period) {
		t.Fatalf("constrained period %v beats optimum %v", res2.Cost.Period, bestP.Cost.Period)
	}
}

func TestEnumerateForkJoinRespectsDataParRules(t *testing.T) {
	fj := workflow.NewForkJoin(2, 2, 3)
	pl := platform.Homogeneous(3, 1)
	enumerateForkJoin(fj, pl, true, func(m mapping.ForkJoinMapping, _ mapping.Cost) {
		for _, b := range m.Blocks {
			if b.Mode != mapping.DataParallel {
				continue
			}
			if b.Root && (len(b.Leaves) > 0 || b.Join) {
				t.Fatal("illegal data-parallel root block enumerated")
			}
			if b.Join && (len(b.Leaves) > 0 || b.Root) {
				t.Fatal("illegal data-parallel join block enumerated")
			}
		}
	})
}

func TestForkJoinDegeneratesToFork(t *testing.T) {
	// With a negligible join weight on its own very fast processor, the
	// fork-join latency optimum approaches the fork optimum.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(2), 5)
		plf := platform.Random(rng, 2, 3)
		fj := workflow.ForkJoin{Root: f.Root, Weights: f.Weights, Join: 1e-12}
		speeds := append(append([]float64(nil), plf.Speeds...), 1e12)
		plfj := platform.New(speeds...)
		bf, ok1 := ForkLatency(f, plf, false)
		bfj, ok2 := ForkJoinLatency(fj, plfj, false)
		if !ok1 || !ok2 {
			t.Fatal("no mapping")
		}
		if numeric.Greater(bfj.Cost.Latency, bf.Cost.Latency) {
			t.Fatalf("trial %d: fork-join latency %v exceeds fork latency %v",
				trial, bfj.Cost.Latency, bf.Cost.Latency)
		}
	}
}
