package anytime

import (
	"context"
	"math/rand"
	"testing"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
)

// TestPortfolioMemberPanicReachesCaller: a panic in the exact member or
// in an annealing member stops the run and is re-raised on the caller's
// goroutine as an *incumbent.WorkerPanic carrying the member's value,
// where the caller's recover (Engine.compute's) turns it into an error.
// Unrecovered on the member's own goroutine it would end the process.
func TestPortfolioMemberPanicReachesCaller(t *testing.T) {
	eval := func(m int) (mapping.Cost, bool) { return mapping.Cost{Period: float64(m), Latency: float64(m)}, true }
	for _, member := range []string{"exact", "anneal"} {
		cfg := Config{Workers: 2, MaxIterations: 1000}
		mutate := func(_ *rand.Rand, m int) int { return m + 1 }
		if member == "exact" {
			cfg.Exact = func(context.Context) (Exact, error) { panic("exact member fault") }
		} else {
			mutate = func(*rand.Rand, int) int { panic("anneal member fault") }
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			run(context.Background(), Spec{MinimizePeriod: true}, cfg, 0.5, []int{3}, eval, mutate,
				func(Exact) int { return 0 })
			return nil
		}()
		wp, ok := got.(*incumbent.WorkerPanic)
		if !ok || wp.Value != member+" member fault" || len(wp.Stack) == 0 {
			t.Fatalf("%s member: the caller recovered %#v, want a *WorkerPanic of the member's value", member, got)
		}
	}
}
