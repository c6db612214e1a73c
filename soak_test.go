// Soak tests: wider randomized cross-validation of the polynomial
// algorithms against exhaustive search, at larger sizes than the unit
// tests. Skipped under -short.
package repliflow_test

import (
	"math/rand"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/platform"
	"repliflow/internal/sim"
	"repliflow/internal/workflow"
)

func TestSoakTheorem7LargerInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		w := float64(1 + rng.Intn(12))
		p := workflow.HomogeneousPipeline(n, w)
		pl := platform.Random(rng, 1+rng.Intn(6), 7)
		res, err := pipealgo.HetHomPipelinePeriodNoDP(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok || !numeric.Eq(res.Cost.Period, opt.Cost.Period) {
			t.Fatalf("trial %d: Theorem 7 %v != exhaustive %v (n=%d w=%v speeds=%v)",
				trial, res.Cost.Period, opt.Cost.Period, n, w, pl.Speeds)
		}
	}
}

func TestSoakTheorem11LargerInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(5)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(12)), n, float64(1+rng.Intn(12)))
		pl := platform.Homogeneous(1+rng.Intn(5), float64(1+rng.Intn(3)))
		for _, dp := range []bool{false, true} {
			joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
			res, _, err := forkalgo.Theorem11(joinless, false, pl, dp, false, numeric.Inf)
			if err != nil {
				t.Fatal(err)
			}
			opt, ok := exhaustive.ForkLatency(f, pl, dp)
			if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
				t.Fatalf("trial %d: Theorem 11 %v != exhaustive %v (dp=%v w0=%v n=%d p=%d)",
					trial, res.Cost.Latency, opt.Cost.Latency, dp, f.Root, n, pl.Processors())
			}
		}
	}
}

func TestSoakSolveAgainstExhaustiveMixedInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 60; trial++ {
		dp := rng.Intn(2) == 0
		p := workflow.RandomPipeline(rng, 1+rng.Intn(5), 12)
		pl := platform.Random(rng, 1+rng.Intn(5), 6)
		pr := core.Problem{Pipeline: &p, Platform: pl, AllowDataParallel: dp, Objective: core.MinPeriod}
		sol, err := core.Solve(pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Exact {
			continue
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, dp)
		if !ok || !numeric.Eq(sol.Cost.Period, opt.Cost.Period) {
			t.Fatalf("trial %d: Solve %v != exhaustive %v (pipe=%v speeds=%v dp=%v)",
				trial, sol.Cost.Period, opt.Cost.Period, p.Weights, pl.Speeds, dp)
		}
	}
}

func TestSoakSimulatorAgainstAnalyticLargeTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		p := workflow.RandomPipeline(rng, 2+rng.Intn(4), 9)
		pl := platform.Random(rng, 2+rng.Intn(4), 4)
		pr := core.Problem{Pipeline: &p, Platform: pl, AllowDataParallel: true, Objective: core.MinPeriod}
		sol, err := core.Solve(pr, core.Options{})
		if err != nil || !sol.Feasible {
			t.Fatal(err)
		}
		tr, err := sim.SimulatePipeline(p, pl, *sol.PipelineMapping, sim.Arrivals(10000, 0))
		if err != nil {
			t.Fatal(err)
		}
		if rel := tr.SteadyStatePeriod() / sol.Cost.Period; rel < 0.995 || rel > 1.005 {
			t.Fatalf("trial %d: simulated period %v vs analytic %v (mapping %v)",
				trial, tr.SteadyStatePeriod(), sol.Cost.Period, sol.PipelineMapping)
		}
	}
}

func TestSoakParetoConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 15; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		dp := rng.Intn(2) == 0
		front, err := core.ParetoFront(core.Problem{Pipeline: &p, Platform: pl, AllowDataParallel: dp}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !core.FrontIsMonotone(front) {
			t.Fatalf("trial %d: non-monotone front", trial)
		}
		// Every front point's mapping must achieve its advertised cost.
		for _, sol := range front {
			c, err := mapping.EvalPipeline(p, pl, *sol.PipelineMapping)
			if err != nil || !numeric.Eq(c.Period, sol.Cost.Period) || !numeric.Eq(c.Latency, sol.Cost.Latency) {
				t.Fatalf("trial %d: front point cost mismatch: %v vs %v (err=%v)", trial, sol.Cost, c, err)
			}
		}
	}
}
