package spdecomp

import (
	"math/rand"
	"testing"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestCPBoundBelowEveryCompletion: on random partitions with the first k
// blocks placed, partial (k below the block count) and complete, cpBound
// never exceeds the latency costOf gives any completion — every injective
// placement of the remaining blocks on the unused processors. Speeds are
// integer, fractional, and drawn from a few repeated classes; weights are
// integer or scaled by a fractional factor, so the rounding of the
// per-step quotients against the block loads is exercised.
func TestCPBoundBelowEveryCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	checked := 0
	for trial := 0; trial < 2000; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(7), 9, 4, 3)
		if trial%2 == 1 {
			f := []float64{0.1, 1.0 / 3, 0.7, 1.3}[rng.Intn(4)]
			for i := range g.Steps {
				g.Steps[i].Weight *= f
			}
		}
		p := 1 + rng.Intn(5)
		var pl platform.Platform
		switch trial % 3 {
		case 0:
			pl = platform.Random(rng, p, 5)
		case 1:
			speeds := make([]float64, p)
			for q := range speeds {
				speeds[q] = 0.1 + 3*rng.Float64()
			}
			pl = platform.Platform{Speeds: speeds}
		default:
			pl = platform.RandomClasses(rng, p, 1+rng.Intn(3), speedPools[rng.Intn(len(speedPools))])
		}
		st, err := newBlockEval(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScanner(st)

		// A random restricted-growth partition into at most p blocks, its
		// loads summed in topological order as parts does.
		blocks := 0
		for s := range sc.assign {
			b := rng.Intn(min(blocks+1, p))
			sc.assign[s] = b
			blocks = max(blocks, b+1)
		}
		clear(sc.load)
		for _, v := range st.topo {
			sc.load[sc.assign[v]] += g.Steps[v].Weight
		}
		// Place the first k blocks on distinct processors as procs does.
		k := 1 + rng.Intn(blocks)
		perm := rng.Perm(p)
		period := 0.0
		for b := range k {
			sc.blockProc[b] = perm[b]
			sc.usedProc[perm[b]] = true
			period = max(period, sc.load[b]/pl.Speeds[perm[b]])
		}
		bound := sc.cpBound(k, period)

		var complete func(b int)
		complete = func(b int) {
			if b == blocks {
				for s, blk := range sc.assign {
					st.procOf[s] = sc.blockProc[blk]
				}
				if lat := st.costOf().Latency; bound > lat {
					t.Fatalf("trial %d: blocks %v, %d of %d placed on %v, speeds %v: bound %v exceeds the latency %v of a completion\n%s",
						trial, sc.assign, k, blocks, sc.blockProc[:blocks], pl.Speeds, bound, lat, g.Render())
				}
				checked++
				return
			}
			for q := range sc.usedProc {
				if sc.usedProc[q] {
					continue
				}
				sc.usedProc[q] = true
				sc.blockProc[b] = q
				complete(b + 1)
				sc.usedProc[q] = false
			}
		}
		complete(k)
	}
	if checked < 1000 {
		t.Fatalf("only %d completions checked", checked)
	}
}
