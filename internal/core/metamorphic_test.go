package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestPipelineWeightScaling is a metamorphic test from the cost model:
// every period and latency is a ratio of weight sums to speed sums, so
// multiplying every weight (and the bound) by 2^k — exact in float64 —
// must give the same mapping with every cost multiplied by exactly 2^k.
// Each row is a family of pipeline instances; each is solved under all
// four objectives at every scale 2^k, k in [-40, 40].
func TestPipelineWeightScaling(t *testing.T) {
	rows := []struct {
		name         string
		homPlatform  bool
		homGraph     bool
		dataParallel bool
	}{
		{"hom-platform/het-graph/no-dp", true, false, false},
		{"hom-platform/het-graph/dp", true, false, true},
		{"het-platform/hom-graph/no-dp", false, true, false},
		{"het-platform/het-graph/no-dp", false, false, false},
		{"het-platform/het-graph/dp", false, false, true},
	}
	rng := rand.New(rand.NewSource(35))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				procs, stages := 2+rng.Intn(3), 3+rng.Intn(3)
				pl := heterogeneousPlatform(rng, procs)
				if row.homPlatform {
					pl = platform.Homogeneous(procs, float64(1+rng.Intn(5)))
				}
				weights := heterogeneousWeights(rng, stages)
				if row.homGraph {
					weights = workflow.HomogeneousPipeline(stages, float64(1+rng.Intn(9))).Weights
				}
				checkWeightScaling(t, weights, pl, row.dataParallel)
			}
		})
	}
}

// checkWeightScaling solves the pipeline of weights on pl at scale 1 and
// at every scale 2^k, and fails unless each scaled answer is the
// unscaled one with its costs times 2^k.
func checkWeightScaling(t *testing.T, weights []float64, pl platform.Platform, dp bool) {
	t.Helper()
	solve := func(k int, obj Objective, bound float64) Solution {
		scaled := make([]float64, len(weights))
		for i, w := range weights {
			scaled[i] = math.Ldexp(w, k)
		}
		p := workflow.NewPipeline(scaled...)
		pr := Problem{Pipeline: &p, Platform: pl, AllowDataParallel: dp, Objective: obj, Bound: math.Ldexp(bound, k)}
		sol, err := Solve(pr, Options{})
		if err != nil {
			t.Fatalf("weights %v on %v, dp %v, %v at 2^%d: %v", weights, pl.Speeds, dp, obj, k, err)
		}
		return sol
	}
	minPeriod, minLatency := solve(0, MinPeriod, 0), solve(0, MinLatency, 0)
	bounds := map[Objective]float64{
		MinPeriod:          0,
		MinLatency:         0,
		LatencyUnderPeriod: (minPeriod.Cost.Period + minLatency.Cost.Period) / 2,
		PeriodUnderLatency: (minPeriod.Cost.Latency + minLatency.Cost.Latency) / 2,
	}
	for obj, bound := range bounds {
		want := solve(0, obj, bound)
		for k := -40; k <= 40; k++ {
			got := solve(k, obj, bound)
			scaled := want
			scaled.Cost.Period = math.Ldexp(want.Cost.Period, k)
			scaled.Cost.Latency = math.Ldexp(want.Cost.Latency, k)
			if !reflect.DeepEqual(got, scaled) {
				t.Fatalf("weights %v on %v, dp %v, %v (bound %v) at 2^%d:\n got  %v\n want %v",
					weights, pl.Speeds, dp, obj, bound, k, got, scaled)
			}
		}
	}
}
