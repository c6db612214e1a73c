package forkalgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestHetForkJoinPeriodMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(3), 5)
		res, _, err := Theorem14(fj, true, pl, true, numeric.Inf)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.ForkJoinPeriod(fj, pl, false)
		if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
			t.Fatalf("trial %d: period %v != exhaustive %v (w0=%v n=%d w=%v wj=%v speeds=%v)\nalg: %v\nopt: %v",
				trial, res.Cost.Period, opt.Cost.Period, fj.Root, n, fj.Weights, fj.Join, pl.Speeds,
				res.Mapping, opt.Mapping)
		}
	}
}

func TestHetForkJoinLatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(3), 5)
		res, _, err := Theorem14(fj, true, pl, false, numeric.Inf)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.ForkJoinLatency(fj, pl, false)
		if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
			t.Fatalf("trial %d: latency %v != exhaustive %v (w0=%v n=%d w=%v wj=%v speeds=%v)\nalg: %v\nopt: %v",
				trial, res.Cost.Latency, opt.Cost.Latency, fj.Root, n, fj.Weights, fj.Join, pl.Speeds,
				res.Mapping, opt.Mapping)
		}
	}
}

func TestHetForkJoinBiCriteriaMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(3), 5)
		optP, _ := exhaustive.ForkJoinPeriod(fj, pl, false)
		bound := optP.Cost.Period * (1 + rng.Float64()*2)
		res, ok, err := Theorem14(fj, true, pl, false, bound)
		if err != nil {
			t.Fatal(err)
		}
		ref, refOK := exhaustive.ForkJoinLatencyUnderPeriod(fj, pl, false, bound)
		if ok != refOK {
			t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v (bound=%v)", ok, refOK, bound)
		}
		if ok && !numeric.Eq(res.Cost.Latency, ref.Cost.Latency) {
			t.Fatalf("trial %d: latency %v != exhaustive %v (bound=%v w0=%v n=%d wj=%v speeds=%v)",
				trial, res.Cost.Latency, ref.Cost.Latency, bound, fj.Root, n, fj.Join, pl.Speeds)
		}
		if ok && numeric.Greater(res.Cost.Period, bound) {
			t.Fatalf("period bound violated: %v > %v", res.Cost.Period, bound)
		}
	}
}

func TestHetForkJoinInfeasibleBounds(t *testing.T) {
	fj := workflow.HomogeneousForkJoin(3, 2, 2, 4)
	pl := platform.New(2, 1)
	if _, ok, err := Theorem14(fj, true, pl, false, 0.1); err != nil || ok {
		t.Fatalf("tight period bound: ok=%v err=%v", ok, err)
	}
	if _, ok, err := Theorem14(fj, true, pl, true, 0.1); err != nil || ok {
		t.Fatalf("tight latency bound: ok=%v err=%v", ok, err)
	}
}

func TestHetForkJoinRejectsHetLeaves(t *testing.T) {
	fj := workflow.NewForkJoin(1, 1, 2, 3)
	if _, _, err := Theorem14(fj, true, platform.New(1, 2), true, numeric.Inf); err != ErrNotHomogeneousFork {
		t.Errorf("err = %v, want ErrNotHomogeneousFork", err)
	}
}
