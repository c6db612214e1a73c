package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestRegistryCompleteness checks the table is total: every dispatch key
// Classify can emit — the full cross product of graph kinds, homogeneity
// axes, mapping models and objectives — resolves to a solver. What each
// cell holds is pinned by TestTable1Golden.
func TestRegistryCompleteness(t *testing.T) {
	keys := AllCellKeys()
	want := 0
	for _, spec := range KindSpecs() {
		cells := 2 * 2 * 4 // platform axis x graph axis x objectives
		if spec.DataParallel {
			cells *= 2
		}
		want += cells
	}
	if len(keys) != want {
		t.Fatalf("AllCellKeys: %d keys, want %d", len(keys), want)
	}
	for _, key := range keys {
		if e, ok := LookupSolver(key); !ok || e.Solve == nil {
			t.Errorf("cell %v: no solver", key)
		}
	}
}

// isLegacyKind reports whether the legacy dispatch oracle covers the
// kind: the pipeline. The seed's fork and fork-join cells are pinned by
// poly.golden and hard.golden.
func isLegacyKind(k workflow.Kind) bool {
	return k == workflow.KindPipeline
}

// randomProblemForCell builds a random instance matching the given
// dispatch axes. When oversized is true the instance exceeds the default
// exhaustive limits, forcing the heuristic path on NP-hard cells.
func randomProblemForCell(rng *rand.Rand, key CellKey, oversized bool) Problem {
	pr := Problem{AllowDataParallel: key.DataParallel, Objective: key.Objective}

	procs := 2 + rng.Intn(3)
	if oversized {
		procs = DefaultOptions().MaxExhaustiveForkProcs + 1 + rng.Intn(2)
		if key.Kind == workflow.KindPipeline {
			procs = DefaultOptions().MaxExhaustivePipelineProcs + 1
		}
	}
	if key.PlatformHomogeneous {
		pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(4)))
	} else {
		pr.Platform = heterogeneousPlatform(rng, procs)
	}

	stages := 2 + rng.Intn(3)
	switch key.Kind {
	case workflow.KindPipeline:
		var g workflow.Pipeline
		if key.GraphHomogeneous {
			g = workflow.HomogeneousPipeline(stages, float64(1+rng.Intn(9)))
		} else {
			g = heterogeneousPipeline(rng, stages)
		}
		pr.Pipeline = &g
	case workflow.KindFork:
		var g workflow.Fork
		root := float64(1 + rng.Intn(9))
		if key.GraphHomogeneous {
			g = workflow.HomogeneousFork(root, stages, float64(1+rng.Intn(9)))
		} else {
			g = workflow.NewFork(root, heterogeneousWeights(rng, stages)...)
		}
		pr.Fork = &g
	default:
		var g workflow.ForkJoin
		root, join := float64(1+rng.Intn(9)), float64(1+rng.Intn(9))
		if key.GraphHomogeneous {
			g = workflow.HomogeneousForkJoin(root, join, stages, float64(1+rng.Intn(9)))
		} else {
			g = workflow.NewForkJoin(root, join, heterogeneousWeights(rng, stages)...)
		}
		pr.ForkJoin = &g
	}

	if key.Objective.Bounded() {
		// Spread bounds from easily feasible to likely infeasible.
		pr.Bound = float64(1+rng.Intn(30)) / 2
	}
	return pr
}

// heterogeneousPlatform returns a platform with at least two distinct
// speeds.
func heterogeneousPlatform(rng *rand.Rand, procs int) platform.Platform {
	speeds := make([]float64, procs)
	speeds[0] = 1
	speeds[1] = 2 + float64(rng.Intn(3))
	for i := 2; i < procs; i++ {
		speeds[i] = float64(1 + rng.Intn(5))
	}
	return platform.New(speeds...)
}

// heterogeneousWeights returns stage weights with at least two distinct
// values.
func heterogeneousWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	w[0] = 1
	if n > 1 {
		w[1] = 2 + float64(rng.Intn(4))
	}
	for i := 2; i < n; i++ {
		w[i] = float64(1 + rng.Intn(9))
	}
	return w
}

func heterogeneousPipeline(rng *rand.Rand, n int) workflow.Pipeline {
	return workflow.NewPipeline(heterogeneousWeights(rng, n)...)
}

// TestRegistryMatchesSeedDispatch is the regression gate of the refactor:
// on a randomized corpus covering every pipeline dispatch cell (and, for
// NP-hard cells, both the exhaustive and the oversized heuristic paths),
// the registry-driven Solve must return byte-identical solutions —
// mapping, cost, method, exactness, feasibility and classification — to
// the seed's if-chain dispatch preserved in legacy_seed_test.go.
func TestRegistryMatchesSeedDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, key := range AllCellKeys() {
		if !isLegacyKind(key.Kind) {
			continue // the seed dispatch never handled these kinds
		}
		for trial := 0; trial < trials; trial++ {
			pr := randomProblemForCell(rng, key, false)
			checkAgainstSeed(t, pr, key)
		}
	}
	// Oversized instances exercise the heuristic fallback of the hard
	// cells; the polynomial cells just solve a bigger instance.
	for _, key := range AllCellKeys() {
		if !isLegacyKind(key.Kind) {
			continue
		}
		// Skip multi-stage oversized pipelines: 2^11 bitmask states per
		// stage are still fine, but keep the corpus fast.
		pr := randomProblemForCell(rng, key, true)
		checkAgainstSeed(t, pr, key)
	}
}

func checkAgainstSeed(t *testing.T, pr Problem, key CellKey) {
	t.Helper()
	want, wantErr := legacySolve(pr, Options{})
	got, gotErr := Solve(pr, Options{})
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("cell %v: seed err %v, registry err %v", key, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("cell %v: registry diverges from seed dispatch\nproblem: %+v\nseed:     %v\nregistry: %v",
			key, pr, want, got)
	}
	// SolveContext with a background context must match Solve exactly.
	ctxSol, err := SolveContext(context.Background(), pr, Options{})
	if err != nil {
		t.Fatalf("cell %v: SolveContext: %v", key, err)
	}
	if !reflect.DeepEqual(got, ctxSol) {
		t.Errorf("cell %v: SolveContext diverges from Solve", key)
	}
}

// TestSolveContextCancellation checks the acceptance property: cancelling
// the context mid-exhaustive-search returns context.Canceled promptly
// instead of running the search to completion.
func TestSolveContextCancellation(t *testing.T) {
	// An NP-hard pipeline cell with the exhaustive limit raised to 14
	// heterogeneous processors: a >500ms bitmask-DP search, two orders of
	// magnitude beyond the 10ms cancellation deadline. The speeds are
	// distinct: the DP searches each set of equal-speed processors once,
	// and on the 5 speeds (5, 4, 3, 3, 2, 2, 1, 1, 4, 2, 3, 5, 2, 1) it
	// finishes in about 14 ms, racing the deadline.
	p := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pl := platform.New(50, 40, 30, 31, 20, 21, 10, 11, 41, 22, 32, 51, 23, 12)
	pr := Problem{Pipeline: &p, Platform: pl, AllowDataParallel: true, Objective: MinPeriod}
	opts := Options{MaxExhaustivePipelineProcs: 14}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveContext(ctx, pr, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled solve returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}

	// A context cancelled before the call returns immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := SolveContext(pre, pr, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve returned %v, want context.Canceled", err)
	}

	// The same cell solves fine (if slowly) with a live context on a
	// smaller platform, proving cancellation is the only failure mode.
	small := Problem{Pipeline: &p, Platform: platform.New(2, 1), AllowDataParallel: true, Objective: MinPeriod}
	if _, err := SolveContext(context.Background(), small, Options{}); err != nil {
		t.Fatalf("uncancelled solve failed: %v", err)
	}
}

// TestSolveContextCancellationFork covers the set-partition search too.
func TestSolveContextCancellationFork(t *testing.T) {
	f := workflow.NewFork(3, 1, 2, 4, 5, 7)
	pl := platform.New(3, 2, 1, 4, 2)
	pr := Problem{Fork: &f, Platform: pl, AllowDataParallel: true, Objective: MinLatency}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, pr, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fork solve returned %v, want context.Canceled", err)
	}
}
