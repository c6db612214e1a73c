package pipealgo

import (
	"math"
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestTheorem6FastestProcessor(t *testing.T) {
	pl := platform.New(2, 2, 1, 1)
	res, err := HetLatencyNoDP(example, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(res.Cost.Latency, 12) { // 24/2
		t.Errorf("latency = %v, want 12", res.Cost.Latency)
	}
}

func TestTheorem6MatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		res, err := HetLatencyNoDP(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.PipelineLatency(p, pl, false)
		if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
			t.Fatalf("Theorem 6 latency %v != exhaustive %v (pipe=%v speeds=%v)",
				res.Cost.Latency, opt.Cost.Latency, p.Weights, pl.Speeds)
		}
	}
}

func TestTheorem7SimpleInstance(t *testing.T) {
	// 4 identical stages of weight 2 on speeds {3, 1}: the best period uses
	// both processors. Exhaustive confirms the optimum.
	p := workflow.HomogeneousPipeline(4, 2)
	pl := platform.New(3, 1)
	res, err := HetHomPipelinePeriodNoDP(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := exhaustive.PipelinePeriod(p, pl, false)
	if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
		t.Fatalf("Theorem 7 period %v != exhaustive %v (mapping %v)",
			res.Cost.Period, opt.Cost.Period, res.Mapping)
	}
}

func TestTheorem7MatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		w := float64(1 + rng.Intn(9))
		p := workflow.HomogeneousPipeline(n, w)
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		res, err := HetHomPipelinePeriodNoDP(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
			t.Fatalf("trial %d: Theorem 7 period %v != exhaustive %v (n=%d w=%v speeds=%v, mapping %v)",
				trial, res.Cost.Period, opt.Cost.Period, n, w, pl.Speeds, res.Mapping)
		}
	}
}

func TestTheorem7RejectsHetPipeline(t *testing.T) {
	if _, err := HetHomPipelinePeriodNoDP(example, platform.New(1, 2)); err != ErrNotHomogeneousPipeline {
		t.Errorf("err = %v, want ErrNotHomogeneousPipeline", err)
	}
}

func TestTheorem8LatencyUnderPeriodMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		w := float64(1 + rng.Intn(9))
		p := workflow.HomogeneousPipeline(n, w)
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		optP, _ := exhaustive.PipelinePeriod(p, pl, false)
		bound := optP.Cost.Period * (1 + rng.Float64()*2)
		res, ok, err := HetHomPipelineLatencyUnderPeriodNoDP(p, pl, bound)
		if err != nil {
			t.Fatal(err)
		}
		ref, refOK := exhaustive.PipelineLatencyUnderPeriod(p, pl, false, bound)
		if ok != refOK {
			t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v", ok, refOK)
		}
		if ok && !numeric.Eq(res.Cost.Latency, ref.Cost.Latency) {
			t.Fatalf("trial %d: Theorem 8 latency %v != exhaustive %v (n=%d w=%v speeds=%v bound=%v)",
				trial, res.Cost.Latency, ref.Cost.Latency, n, w, pl.Speeds, bound)
		}
		if ok && numeric.Greater(res.Cost.Period, bound) {
			t.Fatalf("period bound violated: %v > %v", res.Cost.Period, bound)
		}
	}
}

func TestTheorem8InfeasiblePeriodBound(t *testing.T) {
	p := workflow.HomogeneousPipeline(3, 4)
	pl := platform.New(2, 1)
	if _, ok, err := HetHomPipelineLatencyUnderPeriodNoDP(p, pl, 0.5); err != nil || ok {
		t.Fatalf("tight bound: ok=%v err=%v, want infeasible", ok, err)
	}
}

func TestTheorem8PeriodUnderLatencyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(4)
		w := float64(1 + rng.Intn(9))
		p := workflow.HomogeneousPipeline(n, w)
		pl := platform.Random(rng, 1+rng.Intn(4), 5)
		optL, _ := exhaustive.PipelineLatency(p, pl, false)
		bound := optL.Cost.Latency * (1 + rng.Float64()*2)
		res, ok, err := HetHomPipelinePeriodUnderLatencyNoDP(p, pl, bound)
		if err != nil {
			t.Fatal(err)
		}
		ref, refOK := exhaustive.PipelinePeriodUnderLatency(p, pl, false, bound)
		if ok != refOK {
			t.Fatalf("feasibility mismatch: alg=%v exhaustive=%v", ok, refOK)
		}
		if ok && !numeric.Eq(res.Cost.Period, ref.Cost.Period) {
			t.Fatalf("trial %d: Theorem 8 period %v != exhaustive %v (n=%d w=%v speeds=%v bound=%v)",
				trial, res.Cost.Period, ref.Cost.Period, n, w, pl.Speeds, bound)
		}
		if ok && numeric.Greater(res.Cost.Latency, bound) {
			t.Fatalf("latency bound violated: %v > %v", res.Cost.Latency, bound)
		}
	}
}

func TestTheorem7UnconstrainedEqualsTheorem8LooseBound(t *testing.T) {
	// With an infinite latency bound the Theorem 8 converse must return the
	// Theorem 7 optimum.
	p := workflow.HomogeneousPipeline(5, 3)
	pl := platform.New(4, 2, 1)
	t7, err := HetHomPipelinePeriodNoDP(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	t8, ok, err := HetHomPipelinePeriodUnderLatencyNoDP(p, pl, numeric.Inf)
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if !numeric.Eq(t7.Cost.Period, t8.Cost.Period) {
		t.Fatalf("Theorem 7 period %v != Theorem 8 period %v", t7.Cost.Period, t8.Cost.Period)
	}
}

// The Theorem 7/8 candidate periods built over the distinct speeds are
// bit-identical to those built over every processor's speed.
func TestPeriodCandidatesOverDistinctSpeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := []float64{1, 2, 3, 5, 0.5, 1.5, 2.5, 0.1}
	for trial := 0; trial < 200; trial++ {
		pl := platform.RandomClasses(rng, 1+rng.Intn(8), 1+rng.Intn(3), pool)
		n, w := 1+rng.Intn(8), float64(1+rng.Intn(9))/float64(1+rng.Intn(3))
		distinct, p := pl.DistinctSpeeds(), pl.Processors()
		got, want := periodCandidates(n, w, distinct, p), periodCandidates(n, w, pl.Speeds, p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates over %v, %d over %v", trial, len(got), distinct, len(want), pl.Speeds)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: candidate %d is %v over %v, %v over %v", trial, i, got[i], distinct, want[i], pl.Speeds)
			}
		}
	}
}
