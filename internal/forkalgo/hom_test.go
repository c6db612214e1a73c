package forkalgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestTheorem10LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		f := workflow.RandomFork(rng, rng.Intn(6), 9)
		pl := platform.Homogeneous(1+rng.Intn(5), float64(1+rng.Intn(3)))
		res, err := Theorem10(joinless(f), false, pl)
		if err != nil {
			t.Fatal(err)
		}
		want := f.TotalWork() / pl.TotalSpeed()
		if !numeric.Eq(res.Cost.Period, want) {
			t.Fatalf("period = %v, want %v", res.Cost.Period, want)
		}
	}
}

func TestTheorem10MatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(2)))
		res, err := Theorem10(joinless(f), false, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range []bool{false, true} {
			opt, ok := exhaustive.ForkPeriod(f, pl, dp)
			if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
				t.Fatalf("Theorem 10 period %v != exhaustive %v (dp=%v)", res.Cost.Period, opt.Cost.Period, dp)
			}
		}
	}
}

func TestTheorem10ForkJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 6)
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(2)))
		res, err := Theorem10(fj, true, pl)
		if err != nil {
			t.Fatal(err)
		}
		want := fj.TotalWork() / pl.TotalSpeed()
		if !numeric.Eq(res.Cost.Period, want) {
			t.Fatalf("period = %v, want %v", res.Cost.Period, want)
		}
		opt, ok := exhaustive.ForkJoinPeriod(fj, pl, true)
		if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
			t.Fatalf("fork-join period %v != exhaustive %v", res.Cost.Period, opt.Cost.Period)
		}
	}
}

func TestTheorem11LatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(4)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(2)))
		for _, dp := range []bool{false, true} {
			res, _, err := Theorem11(joinless(f), false, pl, dp, false, numeric.Inf)
			if err != nil {
				t.Fatal(err)
			}
			opt, ok := exhaustive.ForkLatency(f, pl, dp)
			if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
				t.Fatalf("trial %d: Theorem 11 latency %v != exhaustive %v (dp=%v, w0=%v n=%d w=%v p=%d s=%v)\nalg: %v\nopt: %v",
					trial, res.Cost.Latency, opt.Cost.Latency, dp, f.Root, n,
					f.Weights, pl.Processors(), pl.Speeds[0], res.Mapping, opt.Mapping)
			}
		}
	}
}

func TestTheorem11LatencyUnderPeriodMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(4)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(2)))
		optP, _ := exhaustive.ForkPeriod(f, pl, false)
		bound := optP.Cost.Period * (1 + rng.Float64()*2)
		for _, dp := range []bool{false, true} {
			res, ok, err := Theorem11(joinless(f), false, pl, dp, false, bound)
			if err != nil {
				t.Fatal(err)
			}
			ref, refOK := exhaustive.ForkLatencyUnderPeriod(f, pl, dp, bound)
			if ok != refOK {
				t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v (bound=%v dp=%v)", ok, refOK, bound, dp)
			}
			if !ok {
				continue
			}
			if !numeric.Eq(res.Cost.Latency, ref.Cost.Latency) {
				t.Fatalf("trial %d: latency %v != exhaustive %v (dp=%v bound=%v w0=%v n=%d p=%d)\nalg: %v\nopt: %v",
					trial, res.Cost.Latency, ref.Cost.Latency, dp, bound, f.Root, n, pl.Processors(), res.Mapping, ref.Mapping)
			}
			if numeric.Greater(res.Cost.Period, bound) {
				t.Fatalf("period bound violated: %v > %v", res.Cost.Period, bound)
			}
		}
	}
}

func TestTheorem11PeriodUnderLatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(2)))
		optL, _ := exhaustive.ForkLatency(f, pl, false)
		bound := optL.Cost.Latency * (1 + rng.Float64()*2)
		for _, dp := range []bool{false, true} {
			res, ok, err := Theorem11(joinless(f), false, pl, dp, true, bound)
			if err != nil {
				t.Fatal(err)
			}
			ref, refOK := exhaustive.ForkPeriodUnderLatency(f, pl, dp, bound)
			if ok != refOK {
				t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v", ok, refOK)
			}
			if ok && !numeric.Eq(res.Cost.Period, ref.Cost.Period) {
				t.Fatalf("trial %d: period %v != exhaustive %v (dp=%v bound=%v)",
					trial, res.Cost.Period, ref.Cost.Period, dp, bound)
			}
			if ok && numeric.Greater(res.Cost.Latency, bound) {
				t.Fatalf("latency bound violated: %v > %v", res.Cost.Latency, bound)
			}
		}
	}
}

func TestTheorem11RejectsHetInputs(t *testing.T) {
	hetFork := workflow.NewFork(1, 2, 3)
	homFork := workflow.HomogeneousFork(1, 2, 3)
	if _, _, err := Theorem11(joinless(hetFork), false, platform.Homogeneous(2, 1), false, false, numeric.Inf); err != ErrNotHomogeneousFork {
		t.Errorf("het fork err = %v", err)
	}
	if _, _, err := Theorem11(joinless(homFork), false, platform.New(1, 2), false, false, numeric.Inf); err != ErrNotHomogeneousPlatform {
		t.Errorf("het platform err = %v", err)
	}
	if _, err := Theorem10(joinless(homFork), false, platform.New(1, 2)); err != ErrNotHomogeneousPlatform {
		t.Errorf("Theorem 10 het platform err = %v", err)
	}
}

func TestTheorem11LeaflessFork(t *testing.T) {
	f := workflow.NewFork(6)
	pl := platform.Homogeneous(3, 2)
	res, _, err := Theorem11(joinless(f), false, pl, true, false, numeric.Inf)
	if err != nil {
		t.Fatal(err)
	}
	// S0 alone data-parallelized on all three processors: 6/(3*2) = 1.
	if !numeric.Eq(res.Cost.Latency, 1) {
		t.Errorf("latency = %v, want 1", res.Cost.Latency)
	}
	res, _, err = Theorem11(joinless(f), false, pl, false, false, numeric.Inf)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(res.Cost.Latency, 3) { // 6/2 on one processor
		t.Errorf("latency without DP = %v, want 3", res.Cost.Latency)
	}
}

// joinless is the fork f as the fork-join without a join the entries take.
func joinless(f workflow.Fork) workflow.ForkJoin {
	return workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
}
