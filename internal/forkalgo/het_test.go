package forkalgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestTheorem14PeriodMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(4)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		res, _, err := Theorem14(joinless(f), false, pl, true, numeric.Inf)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.ForkPeriod(f, pl, false)
		if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
			t.Fatalf("trial %d: Theorem 14 period %v != exhaustive %v (w0=%v n=%d w=%v speeds=%v)\nalg: %v\nopt: %v",
				trial, res.Cost.Period, opt.Cost.Period, f.Root, n, f.Weights, pl.Speeds, res.Mapping, opt.Mapping)
		}
	}
}

func TestTheorem14LatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(4)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		res, _, err := Theorem14(joinless(f), false, pl, false, numeric.Inf)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.ForkLatency(f, pl, false)
		if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
			t.Fatalf("trial %d: Theorem 14 latency %v != exhaustive %v (w0=%v n=%d w=%v speeds=%v)\nalg: %v\nopt: %v",
				trial, res.Cost.Latency, opt.Cost.Latency, f.Root, n, f.Weights, pl.Speeds, res.Mapping, opt.Mapping)
		}
	}
}

func TestTheorem14BiCriteriaMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		optP, _ := exhaustive.ForkPeriod(f, pl, false)
		bound := optP.Cost.Period * (1 + rng.Float64()*2)
		res, ok, err := Theorem14(joinless(f), false, pl, false, bound)
		if err != nil {
			t.Fatal(err)
		}
		ref, refOK := exhaustive.ForkLatencyUnderPeriod(f, pl, false, bound)
		if ok != refOK {
			t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v (bound=%v)", ok, refOK, bound)
		}
		if ok && !numeric.Eq(res.Cost.Latency, ref.Cost.Latency) {
			t.Fatalf("trial %d: latency %v != exhaustive %v (bound=%v w0=%v n=%d speeds=%v)",
				trial, res.Cost.Latency, ref.Cost.Latency, bound, f.Root, n, pl.Speeds)
		}
		if ok && numeric.Greater(res.Cost.Period, bound) {
			t.Fatalf("period bound violated: %v > %v", res.Cost.Period, bound)
		}

		optL, _ := exhaustive.ForkLatency(f, pl, false)
		lbound := optL.Cost.Latency * (1 + rng.Float64()*2)
		res2, ok2, err := Theorem14(joinless(f), false, pl, true, lbound)
		if err != nil {
			t.Fatal(err)
		}
		ref2, refOK2 := exhaustive.ForkPeriodUnderLatency(f, pl, false, lbound)
		if ok2 != refOK2 {
			t.Fatalf("converse feasibility mismatch: alg=%v exhaustive=%v", ok2, refOK2)
		}
		if ok2 && !numeric.Eq(res2.Cost.Period, ref2.Cost.Period) {
			t.Fatalf("trial %d: period %v != exhaustive %v (lbound=%v)",
				trial, res2.Cost.Period, ref2.Cost.Period, lbound)
		}
	}
}

func TestTheorem14InfeasibleBounds(t *testing.T) {
	f := workflow.HomogeneousFork(4, 2, 3)
	pl := platform.New(2, 1)
	if _, ok, err := Theorem14(joinless(f), false, pl, false, 0.1); err != nil || ok {
		t.Fatalf("tight period bound: ok=%v err=%v", ok, err)
	}
	if _, ok, err := Theorem14(joinless(f), false, pl, true, 0.1); err != nil || ok {
		t.Fatalf("tight latency bound: ok=%v err=%v", ok, err)
	}
}

func TestTheorem14RejectsHetFork(t *testing.T) {
	f := workflow.NewFork(1, 2, 3)
	if _, _, err := Theorem14(joinless(f), false, platform.New(1, 2), true, numeric.Inf); err != ErrNotHomogeneousFork {
		t.Errorf("err = %v, want ErrNotHomogeneousFork", err)
	}
	if _, _, err := Theorem14(joinless(f), false, platform.New(1, 2), false, numeric.Inf); err != ErrNotHomogeneousFork {
		t.Errorf("err = %v, want ErrNotHomogeneousFork", err)
	}
}

func TestTheorem14LeaflessFork(t *testing.T) {
	f := workflow.NewFork(6)
	pl := platform.New(1, 3)
	res, _, err := Theorem14(joinless(f), false, pl, false, numeric.Inf)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(res.Cost.Latency, 2) { // 6/3 on the fast processor
		t.Errorf("latency = %v, want 2 (mapping %v)", res.Cost.Latency, res.Mapping)
	}
	resP, _, err := Theorem14(joinless(f), false, pl, true, numeric.Inf)
	if err != nil {
		t.Fatal(err)
	}
	// Replicating S0 on both processors: 6/(2*1) = 3 vs fast alone 2.
	if !numeric.Eq(resP.Cost.Period, 2) {
		t.Errorf("period = %v, want 2 (mapping %v)", resP.Cost.Period, resP.Mapping)
	}
}
