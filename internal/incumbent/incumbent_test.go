package incumbent

import (
	"math"
	"sync"
	"testing"

	"repliflow/internal/mapping"
)

// minSpec optimizes the period with no feasibility constraint beyond a
// period cap.
type minSpec struct{ cap float64 }

func (s minSpec) Objective(c mapping.Cost) float64 { return c.Period }
func (s minSpec) Feasible(c mapping.Cost) bool     { return c.Period <= s.cap }

func cost(p float64) mapping.Cost { return mapping.Cost{Period: p, Latency: p} }

func TestBestOfferAdoptSnapshot(t *testing.T) {
	var b Best[string]
	spec := minSpec{cap: 10}

	if _, _, found := b.Snapshot(); found {
		t.Fatal("zero Best reports an incumbent")
	}
	if b.Offer(spec, "infeasible", cost(11)) {
		t.Fatal("Offer installed an infeasible candidate")
	}
	if !b.Offer(spec, "first", cost(5)) {
		t.Fatal("Offer rejected the first feasible candidate")
	}
	if b.Offer(spec, "tie", cost(5)) {
		t.Fatal("Offer replaced an equal-cost incumbent; ties must keep the holder")
	}
	if b.Offer(spec, "worse", cost(7)) {
		t.Fatal("Offer installed a strictly worse candidate")
	}
	if !b.Offer(spec, "better", cost(3)) {
		t.Fatal("Offer rejected a strict improvement")
	}

	// Adopt replaces ties (the exact member's mapping wins a certified
	// run) but never a strictly better incumbent.
	b.Adopt(spec, "exact", cost(3))
	if m, _, _ := b.Snapshot(); m != "exact" {
		t.Fatalf("Adopt on a tie kept %q, want the exact result", m)
	}
	b.Adopt(spec, "exact-worse", cost(4))
	if m, c, found := b.Snapshot(); !found || m != "exact" || c.Period != 3 {
		t.Fatalf("Adopt degraded the incumbent to (%q, %v, %v)", m, c, found)
	}
}

func TestBoundTightenIsMonotoneMin(t *testing.T) {
	var b Bound
	b.reset()
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("fresh bound = %g, want +Inf", b.Load())
	}
	b.Tighten(5)
	b.Tighten(7) // looser: ignored
	if got := b.Load(); got != 5 {
		t.Fatalf("bound after Tighten(5), Tighten(7) = %g, want 5", got)
	}
	b.Tighten(2)
	if got := b.Load(); got != 2 {
		t.Fatalf("bound after Tighten(2) = %g, want 2", got)
	}
}

// TestBoundConcurrentTighten: racing tighteners must end at the global
// minimum — the CAS loop may not lose a smaller value to a larger one.
func TestBoundConcurrentTighten(t *testing.T) {
	var b Bound
	b.reset()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1000 + w; v > w; v-- {
				b.Tighten(float64(v))
			}
		}(w)
	}
	wg.Wait()
	if got := b.Load(); got != 1 {
		t.Fatalf("concurrent tighten ended at %g, want 1", got)
	}
}
