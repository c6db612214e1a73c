package exhaustive

import (
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The inline leaf costs of the enumerators must be bit-identical to
// mapping.Eval* — not merely within tolerance — because one-shot,
// prepared and parallel paths all report them, and downstream consumers
// (the replay trace differ, the engine fingerprint cache) compare
// responses exactly. Fractional speeds and weights stress the terms
// whose value depends on floating-point summation order.

func randFracPlatform(rng *rand.Rand, p int) platform.Platform {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 0.1 + 3*rng.Float64()
	}
	return platform.New(speeds...)
}

func TestForkInlineCostMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		f := workflow.Fork{Root: 0.1 + 5*rng.Float64(), Weights: make([]float64, 1+rng.Intn(3))}
		for i := range f.Weights {
			f.Weights[i] = 0.1 + 5*rng.Float64()
		}
		pl := randFracPlatform(rng, 2+rng.Intn(2))
		n := 0
		EnumerateFork(f, pl, true, func(m mapping.ForkMapping, c mapping.Cost) {
			n++
			want, err := mapping.EvalFork(f, pl, m)
			if err != nil {
				t.Fatalf("enumerated invalid mapping: %v", err)
			}
			if want != c {
				t.Fatalf("inline cost %v != EvalFork %v for %v", c, want, m)
			}
		})
		if n == 0 {
			t.Fatal("no mappings enumerated")
		}
	}
}

func TestForkJoinInlineCostMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		fj := workflow.ForkJoin{
			Root:    0.1 + 5*rng.Float64(),
			Join:    0.1 + 5*rng.Float64(),
			Weights: make([]float64, 1+rng.Intn(3)),
		}
		for i := range fj.Weights {
			fj.Weights[i] = 0.1 + 5*rng.Float64()
		}
		pl := randFracPlatform(rng, 2+rng.Intn(2))
		n := 0
		enumerateForkJoin(fj, pl, true, func(m mapping.ForkJoinMapping, c mapping.Cost) {
			n++
			want, err := mapping.EvalForkJoin(fj, pl, m)
			if err != nil {
				t.Fatalf("enumerated invalid mapping: %v", err)
			}
			if want != c {
				t.Fatalf("inline cost %v != EvalForkJoin %v for %v", c, want, m)
			}
		})
		if n == 0 {
			t.Fatal("no mappings enumerated")
		}
	}
}

// TestMaskInfoSumMatchesSubsetSpeedSum pins the ascending accumulation
// order of buildMaskInfo: info.sum must reproduce SubsetSpeedSum over the
// sorted procs list bit for bit, or the inline data-parallel costs above
// drift a ULP from mapping.Eval*.
func TestMaskInfoSumMatchesSubsetSpeedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		pl := randFracPlatform(rng, 2+rng.Intn(5))
		info := buildMaskInfo(pl)
		for mask := 1; mask < len(info); mask++ {
			if got, want := info[mask].sum, pl.SubsetSpeedSum(info[mask].procs); got != want {
				t.Fatalf("mask %b: sum %v != SubsetSpeedSum %v", mask, got, want)
			}
		}
	}
}
