package core

import (
	"context"
	"runtime"
	"testing"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestExactSolvesRetainNoPlatformTables: an exact solve builds its
// platform table for itself and drops it with the solver, so a stream of
// solves on distinct platforms — the NP-hard traffic of a server — leaves
// the live heap where it found it. A p = 10 subset table is ~100 KB, so
// 200 retained tables would show as ~20 MB.
func TestExactSolvesRetainNoPlatformTables(t *testing.T) {
	const p, platforms = 10, 200
	pipe := workflow.NewPipeline(4, 2, 3)
	comm := fullmodel.NewPipeline([]float64{3, 1, 2}, []float64{1, 2, 1, 1})
	opts := Options{MaxExhaustiveForkProcs: p}
	ctx := context.Background()
	solve := func(i int) {
		speeds := make([]float64, p)
		for u := range speeds {
			speeds[u] = 1 + float64(u) + float64(i)/platforms
		}
		pl := platform.New(speeds...)
		for _, pr := range []Problem{
			{Pipeline: &pipe, Platform: pl, Objective: MinPeriod},
			{CommPipeline: &comm, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: pl, Objective: MinLatency},
		} {
			sol, err := SolveContext(ctx, pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Exact || sol.Method != MethodExhaustive {
				t.Fatalf("platform %d: solved by %v (exact %v), want an exhaustive solve", i, sol.Method, sol.Exact)
			}
		}
	}
	solve(platforms) // warm-up: first-use allocations are not retention
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < platforms; i++ {
		solve(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Errorf("%d exact solves on distinct platforms retained %d KiB of heap, want < 2048", 2*platforms, grew>>10)
	}
}
