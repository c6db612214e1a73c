package main

import (
	"context"
	"testing"

	"repliflow/internal/fullmodel"
)

// TestCommunicationLogic exercises the example's fullmodel sweep: with
// zero data the optimum splits one stage per processor (period 8), and
// large transfers collapse the mapping to a single interval (period 32).
func TestCommunicationLogic(t *testing.T) {
	weights := []float64{8, 8, 8, 8}
	speeds := []float64{1, 1, 1, 1}
	solve := func(d float64) (intervals int, period float64) {
		data := []float64{0, d, d, d, 0}
		p := fullmodel.NewPipeline(weights, data)
		pl := fullmodel.Uniform(speeds, 1)
		m, c, err := minPeriod(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		return m.Intervals(), c.Period
	}

	if iv, per := solve(0); iv != 4 || per != 8 {
		t.Errorf("zero data: %d intervals period %g, want 4 intervals period 8", iv, per)
	}
	if iv, per := solve(32); iv != 1 || per != 32 {
		t.Errorf("heavy data: %d intervals period %g, want 1 interval period 32", iv, per)
	}
	// The sweep is monotone: growing transfers never reduce the period.
	prev := -1.0
	for _, d := range []float64{0, 1, 2, 4, 8, 16, 32} {
		_, per := solve(d)
		if per < prev {
			t.Errorf("data %g: period %g below previous %g", d, per, prev)
		}
		prev = per
	}

	// Heterogeneous links, as the example solves them: the exact solver
	// must route the heavy transfer over the fast link.
	p := fullmodel.NewPipeline([]float64{4, 4}, []float64{0, 8, 0})
	pl := fullmodel.Uniform([]float64{1, 1}, 1)
	pl.Band[0][1] = 8
	pl.Band[1][0] = 0.5
	pp, err := fullmodel.NewPipelinePrepared(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	m, _, ok, err := pp.SolveExact(context.Background(), fullmodel.Goal{MinimizePeriod: true})
	if err != nil || !ok {
		t.Fatalf("exact solve failed: ok=%v err=%v", ok, err)
	}
	if len(m.Alloc) == 2 && m.Alloc[0] == 1 && m.Alloc[1] == 0 {
		t.Error("optimal mapping routed the heavy transfer over the slow link")
	}
}
