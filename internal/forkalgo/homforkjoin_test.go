package forkalgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestForkJoinLatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(2)))
		for _, dp := range []bool{false, true} {
			res, _, err := Theorem11(fj, true, pl, dp, false, numeric.Inf)
			if err != nil {
				t.Fatal(err)
			}
			opt, ok := exhaustive.ForkJoinLatency(fj, pl, dp)
			if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
				t.Fatalf("trial %d: fork-join latency %v != exhaustive %v (dp=%v, w0=%v n=%d w=%v wj=%v p=%d)\nalg: %v\nopt: %v",
					trial, res.Cost.Latency, opt.Cost.Latency, dp, fj.Root, n, fj.Weights,
					fj.Join, pl.Processors(), res.Mapping, opt.Mapping)
			}
		}
	}
}

func TestForkJoinLatencyUnderPeriodMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(2)))
		optP, _ := exhaustive.ForkJoinPeriod(fj, pl, false)
		bound := optP.Cost.Period * (1 + rng.Float64()*2)
		for _, dp := range []bool{false, true} {
			res, ok, err := Theorem11(fj, true, pl, dp, false, bound)
			if err != nil {
				t.Fatal(err)
			}
			ref, refOK := exhaustive.ForkJoinLatencyUnderPeriod(fj, pl, dp, bound)
			if ok != refOK {
				t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v (bound=%v dp=%v)", ok, refOK, bound, dp)
			}
			if ok && !numeric.Eq(res.Cost.Latency, ref.Cost.Latency) {
				t.Fatalf("trial %d: latency %v != exhaustive %v (dp=%v bound=%v w0=%v n=%d wj=%v p=%d)\nalg: %v\nopt: %v",
					trial, res.Cost.Latency, ref.Cost.Latency, dp, bound, fj.Root, n, fj.Join,
					pl.Processors(), res.Mapping, ref.Mapping)
			}
			if ok && numeric.Greater(res.Cost.Period, bound) {
				t.Fatalf("period bound violated: %v > %v", res.Cost.Period, bound)
			}
		}
	}
}

func TestForkJoinPeriodUnderLatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(3)
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(2)))
		optL, _ := exhaustive.ForkJoinLatency(fj, pl, false)
		bound := optL.Cost.Latency * (1 + rng.Float64()*2)
		for _, dp := range []bool{false, true} {
			res, ok, err := Theorem11(fj, true, pl, dp, true, bound)
			if err != nil {
				t.Fatal(err)
			}
			ref, refOK := exhaustive.ForkJoinPeriodUnderLatency(fj, pl, dp, bound)
			if ok != refOK {
				t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v", ok, refOK)
			}
			if ok && !numeric.Eq(res.Cost.Period, ref.Cost.Period) {
				t.Fatalf("trial %d: period %v != exhaustive %v (dp=%v bound=%v)",
					trial, res.Cost.Period, ref.Cost.Period, dp, bound)
			}
		}
	}
}

func TestForkJoinRejectsHetInputs(t *testing.T) {
	hetFJ := workflow.NewForkJoin(1, 1, 2, 3)
	homFJ := workflow.HomogeneousForkJoin(1, 1, 2, 3)
	if _, _, err := Theorem11(hetFJ, true, platform.Homogeneous(2, 1), false, false, numeric.Inf); err != ErrNotHomogeneousFork {
		t.Errorf("het fork-join err = %v", err)
	}
	if _, _, err := Theorem11(homFJ, true, platform.New(1, 2), false, false, numeric.Inf); err != ErrNotHomogeneousPlatform {
		t.Errorf("het platform err = %v", err)
	}
}
