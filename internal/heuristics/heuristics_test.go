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

func TestHetPipelinePeriodNoDPValidAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(5), 12)
		pl := platform.Random(rng, 1+rng.Intn(4), 6)
		m, c, err := HetPipelinePeriodNoDP(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mapping.EvalPipeline(p, pl, m)
		if err != nil {
			t.Fatalf("heuristic mapping invalid: %v", err)
		}
		if !numeric.Eq(got.Period, c.Period) {
			t.Fatalf("reported %v, evaluated %v", c, got)
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok {
			t.Fatal("no optimum")
		}
		if numeric.Less(c.Period, opt.Cost.Period) {
			t.Fatalf("heuristic %v beats the exhaustive optimum %v — exhaustive bug?",
				c.Period, opt.Cost.Period)
		}
		// On these instance sizes the combined heuristic stays within 2x.
		if c.Period > 2*opt.Cost.Period+1e-9 {
			t.Errorf("trial %d: heuristic gap too large: %v vs optimal %v (pipe=%v speeds=%v)",
				trial, c.Period, opt.Cost.Period, p.Weights, pl.Speeds)
		}
	}
}

func TestHetPipelinePeriodNoDPOptimalOnSingleProcessor(t *testing.T) {
	p := workflow.NewPipeline(3, 5, 2)
	pl := platform.New(2)
	_, c, err := HetPipelinePeriodNoDP(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(c.Period, 5) { // 10/2
		t.Errorf("period = %v, want 5", c.Period)
	}
}

func TestHetPipelineWithDPValidAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 12)
		pl := platform.Random(rng, 1+rng.Intn(4), 6)
		for _, minPeriod := range []bool{true, false} {
			m, c, err := HetPipelineWithDP(p, pl, minPeriod)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mapping.EvalPipeline(p, pl, m); err != nil {
				t.Fatalf("heuristic mapping invalid: %v", err)
			}
			if minPeriod {
				opt, _ := exhaustive.PipelinePeriod(p, pl, true)
				if numeric.Less(c.Period, opt.Cost.Period) {
					t.Fatalf("heuristic period %v beats optimum %v", c.Period, opt.Cost.Period)
				}
			} else {
				opt, _ := exhaustive.PipelineLatency(p, pl, true)
				if numeric.Less(c.Latency, opt.Cost.Latency) {
					t.Fatalf("heuristic latency %v beats optimum %v", c.Latency, opt.Cost.Latency)
				}
				// Latency never exceeds the trivial fastest-processor bound.
				if numeric.Greater(c.Latency, p.TotalWork()/pl.MaxSpeed()) {
					t.Fatalf("heuristic latency %v worse than whole-on-fastest %v",
						c.Latency, p.TotalWork()/pl.MaxSpeed())
				}
			}
		}
	}
}

func TestHetPipelineWithDPSection2(t *testing.T) {
	// On the Section 2 heterogeneous example the heuristic should pick a
	// data-parallel split no worse than the paper's hand mapping (13.5).
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.New(2, 2, 1, 1)
	_, c, err := HetPipelineWithDP(p, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if numeric.Greater(c.Latency, 13.5) {
		t.Errorf("heuristic latency %v worse than the paper's hand mapping 13.5", c.Latency)
	}
}

func TestHetForkLatencyLPTValidAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 12)
		pl := platform.Homogeneous(1+rng.Intn(3), float64(1+rng.Intn(3)))
		m, c, err := HetForkLatencyLPT(f, pl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mapping.EvalFork(f, pl, m); err != nil {
			t.Fatalf("heuristic mapping invalid: %v", err)
		}
		opt, ok := exhaustive.ForkLatency(f, pl, false)
		if !ok {
			t.Fatal("no optimum")
		}
		if numeric.Less(c.Latency, opt.Cost.Latency) {
			t.Fatalf("heuristic %v beats optimum %v", c.Latency, opt.Cost.Latency)
		}
		// LPT is a 4/3-approximation of the makespan part; with the w0/s
		// offset the overall ratio can only be smaller.
		if c.Latency > opt.Cost.Latency*4/3+1e-9 {
			t.Errorf("trial %d: LPT gap too large: %v vs %v (fork=%+v p=%d)",
				trial, c.Latency, opt.Cost.Latency, f, pl.Processors())
		}
	}
}

func TestHetForkJoinGreedyWithoutJoinValidAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 12)
		pl := platform.Random(rng, 1+rng.Intn(3), 5)
		m, c, err := HetForkJoinGreedy(joinless(f), false, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range m.Blocks {
			if b.Join {
				t.Fatalf("greedy fork mapping sets a Join flag: %v", m)
			}
		}
		got, err := mapping.EvalFork(f, pl, m.Fork())
		if err != nil {
			t.Fatalf("heuristic mapping invalid: %v", err)
		}
		if got != c {
			t.Fatalf("reported %v, EvalFork %v", c, got)
		}
		opt, ok := exhaustive.ForkPeriod(f, pl, false)
		if !ok {
			t.Fatal("no optimum")
		}
		if numeric.Less(c.Period, opt.Cost.Period) {
			t.Fatalf("heuristic %v beats optimum %v", c.Period, opt.Cost.Period)
		}
		if c.Period > 2*opt.Cost.Period+1e-9 {
			t.Errorf("trial %d: greedy gap too large: %v vs %v (fork=%+v speeds=%v)",
				trial, c.Period, opt.Cost.Period, f, pl.Speeds)
		}
	}
}

func TestHeuristicsRejectInvalidInputs(t *testing.T) {
	bad := workflow.NewPipeline()
	pl := platform.Homogeneous(2, 1)
	if _, _, err := HetPipelinePeriodNoDP(bad, pl); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, _, err := HetPipelineWithDP(bad, pl, true); err == nil {
		t.Error("empty pipeline accepted")
	}
	badFork := workflow.NewFork(0)
	if _, _, err := HetForkLatencyLPT(badFork, pl); err == nil {
		t.Error("invalid fork accepted")
	}
	if _, _, err := HetForkJoinGreedy(joinless(badFork), false, pl, true); err == nil {
		t.Error("invalid fork accepted")
	}
}

func TestTheorem15InstanceHeuristic(t *testing.T) {
	// On the Theorem 15 construction with a yes 2-PARTITION instance the
	// greedy heuristic may or may not find period 1, but must stay sound.
	a := []int{1, 2, 3, 4} // S = 10, partition {1,4}/{2,3}
	S := 10.0
	f := workflow.NewFork(S, 1, 2, 3, 4, S)
	pl := platform.New(5*S/2, S/2)
	_, c, err := HetForkJoinGreedy(joinless(f), false, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := exhaustive.ForkPeriod(f, pl, false)
	if !numeric.Eq(opt.Cost.Period, 1) {
		t.Fatalf("exhaustive period on yes-instance = %v, want 1 (a=%v)", opt.Cost.Period, a)
	}
	if numeric.Less(c.Period, 1) {
		t.Fatalf("heuristic beats the optimum: %v", c.Period)
	}
}

// joinless is the fork f as the fork-join without a join HetForkJoinGreedy
// takes.
func joinless(f workflow.Fork) workflow.ForkJoin {
	return workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
}
