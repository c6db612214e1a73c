// Communication costs change the optimal mapping.
//
// Sections 3.2-3.3 of the paper describe the general model with data sizes
// and link bandwidths (Equations (1) and (2)) before deliberately setting
// communications aside. This example uses the internal/fullmodel package —
// the executable form of those equations — to show the effect the paper
// anticipates: as the inter-stage data volume grows, the period-optimal
// interval mapping coarsens from one-stage-per-processor down to a single
// interval, and the latency of the period-optimal mapping follows suit.
package main

import (
	"context"
	"fmt"
	"log"

	"repliflow/internal/fullmodel"
)

func main() {
	weights := []float64{8, 8, 8, 8}
	speeds := []float64{1, 1, 1, 1}
	fmt.Println("pipeline weights:", weights, "on 4 unit processors, bandwidth 1")
	fmt.Println()
	fmt.Printf("%-12s %-10s %-10s %-10s %s\n", "data size", "intervals", "period", "latency", "mapping (bounds)")

	for _, d := range []float64{0, 1, 2, 4, 8, 16, 32} {
		data := []float64{0, d, d, d, 0} // interior boundaries carry d, I/O is free
		p := fullmodel.NewPipeline(weights, data)
		pl := fullmodel.Uniform(speeds, 1)
		m, c, err := minPeriod(p, pl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12g %-10d %-10g %-10g %v\n", d, m.Intervals(), c.Period, c.Latency, m.Bounds)
	}

	fmt.Println()
	fmt.Println("With zero data the optimum splits one stage per processor (period 8);")
	fmt.Println("large transfers make any split pay 2*d/b per boundary, collapsing the")
	fmt.Println("mapping to a single interval (period 32) — the behaviour the paper's")
	fmt.Println("simplified model abstracts away, and the reason its complexity results")
	fmt.Println("are a lower bound on the difficulty of the communication-aware problem.")

	// Heterogeneous links: route the heavy transfer over the fast link.
	fmt.Println()
	fmt.Println("heterogeneous links: stages (4,4) with an 8-unit transfer between them;")
	fmt.Println("link P1->P2 has bandwidth 8, P2->P1 only 0.5:")
	p := fullmodel.NewPipeline([]float64{4, 4}, []float64{0, 8, 0})
	pl := fullmodel.Uniform([]float64{1, 1}, 1)
	pl.Band[0][1] = 8
	pl.Band[1][0] = 0.5
	pp, err := fullmodel.NewPipelinePrepared(p, pl)
	if err != nil {
		log.Fatal(err)
	}
	m, c, ok, err := pp.SolveExact(context.Background(), fullmodel.Goal{MinimizePeriod: true})
	if err != nil || !ok {
		log.Fatal(err)
	}
	fmt.Printf("  optimal: bounds %v on processors %v, period %g latency %g\n",
		m.Bounds, m.Alloc, c.Period, c.Latency)
}

// minPeriod returns the period-optimal interval mapping of p on the fully
// homogeneous platform pl, by the homogeneous dynamic program. An
// uncapped period goal is always feasible.
func minPeriod(p fullmodel.Pipeline, pl fullmodel.Platform) (fullmodel.Mapping, fullmodel.Cost, error) {
	pp, err := fullmodel.NewPipelinePrepared(p, pl)
	if err != nil {
		return fullmodel.Mapping{}, fullmodel.Cost{}, err
	}
	m, c, _, err := pp.SolveHom(fullmodel.Goal{MinimizePeriod: true})
	return m, c, err
}
