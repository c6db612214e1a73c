package fullmodel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// Byte-identity corpora for the prepared and parallel comm-aware solvers.
// The replay harness diffs recorded costs with ==, so these tests compare
// costs with == (not the tolerant numeric.Eq) and mappings with
// reflect.DeepEqual: the prepared (scratch reused across goals) and
// partitioned paths must reproduce a fresh serial solver's results bit
// for bit.

// randomBandwidth returns a uniform or full-table bandwidth description
// for p processors.
func randomBandwidth(rng *rand.Rand, p int) Bandwidth {
	if rng.Intn(2) == 0 {
		return Bandwidth{Uniform: float64(1 + rng.Intn(4))}
	}
	b := Bandwidth{Links: make([][]float64, p), In: make([]float64, p), Out: make([]float64, p)}
	for u := 0; u < p; u++ {
		b.Links[u] = make([]float64, p)
		b.In[u] = float64(1 + rng.Intn(4))
		b.Out[u] = float64(1 + rng.Intn(4))
		for v := 0; v < p; v++ {
			if v != u {
				b.Links[u][v] = float64(1 + rng.Intn(4))
			}
		}
	}
	return b
}

func randomHetPlatform(rng *rand.Rand, p int) Platform {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = float64(1 + rng.Intn(5))
	}
	return randomBandwidth(rng, p).Apply(speeds)
}

// TestCommPipelineParallelSerialIdentity: the interval scan sharded by
// first choice must be byte-identical to the one-shard scan on every goal,
// at every worker count.
func TestCommPipelineParallelSerialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		p := randomCommPipeline(rng, 2+rng.Intn(5))
		pl := randomHetPlatform(rng, 2+rng.Intn(3))
		for _, goal := range allGoals(float64(3 + rng.Intn(10))) {
			serial, err := NewPipelinePrepared(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewPipelinePrepared(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			par.SetParallelism(2 + rng.Intn(3))
			sm, sc, sok, err := serial.SolveExact(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			pm, pc, pok, err := par.SolveExact(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			if sok != pok || sc != pc || !reflect.DeepEqual(sm, pm) {
				t.Fatalf("trial %d goal %+v: parallel diverges: (%v %v %v) vs (%v %v %v)",
					trial, goal, pm, pc, pok, sm, sc, sok)
			}
		}
	}
}

// TestCommPipelinePreparedIdentity: prepared solves — including repeated
// goals and DP-table reuse across goals — must equal solves on a fresh
// prepared solver.
func TestCommPipelinePreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		p := randomCommPipeline(rng, 2+rng.Intn(5))
		hom := rng.Intn(2) == 0
		var pl Platform
		if hom {
			procs := 2 + rng.Intn(3)
			speeds := make([]float64, procs)
			s := float64(1 + rng.Intn(4))
			for i := range speeds {
				speeds[i] = s
			}
			pl = Uniform(speeds, float64(1+rng.Intn(4)))
		} else {
			pl = randomHetPlatform(rng, 2+rng.Intn(3))
		}
		pp, err := NewPipelinePrepared(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		goals := allGoals(float64(3 + rng.Intn(10)))
		// Two passes: the second re-runs every goal on reused tables.
		for pass := 0; pass < 2; pass++ {
			for _, goal := range goals {
				var gm, wm Mapping
				var gc, wc Cost
				var gok, wok bool
				if hom {
					gm, gc, gok, err = pp.SolveHom(goal)
					if err != nil {
						t.Fatal(err)
					}
					wm, wc, wok, err = prepare(t, p, pl).SolveHom(goal)
				} else {
					gm, gc, gok, err = pp.SolveExact(context.Background(), goal)
					if err != nil {
						t.Fatal(err)
					}
					wm, wc, wok, err = prepare(t, p, pl).SolveExact(context.Background(), goal)
				}
				if err != nil {
					t.Fatal(err)
				}
				if gok != wok || gc != wc || !reflect.DeepEqual(gm, wm) {
					t.Fatalf("trial %d pass %d goal %+v (hom=%v): prepared diverges: (%v %v %v) vs (%v %v %v)",
						trial, pass, goal, hom, gm, gc, gok, wm, wc, wok)
				}
			}
		}
	}
}

// TestCommForkPreparedIdentity: prepared one-port fork solves (scratch
// reuse, repeated goals) must equal solves on a fresh prepared solver.
func TestCommForkPreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		f := randomCommFork(rng, rng.Intn(5), rng.Intn(4) == 0)
		pl := randomHetPlatform(rng, 2+rng.Intn(3))
		fp, err := NewForkPrepared(f, pl)
		if err != nil {
			t.Fatal(err)
		}
		goals := []Goal{
			{MinimizePeriod: true},
			{},
			{PeriodCap: float64(3 + rng.Intn(10))},
			{MinimizePeriod: true, LatencyCap: float64(9 + rng.Intn(20))},
		}
		for pass := 0; pass < 2; pass++ {
			for _, goal := range goals {
				gm, gc, gok, err := fp.SolveExact(context.Background(), goal)
				if err != nil {
					t.Fatal(err)
				}
				wm, wc, wok, err := prepareFork(t, f, pl).SolveExact(context.Background(), goal)
				if err != nil {
					t.Fatal(err)
				}
				if gok != wok || gc != wc || !reflect.DeepEqual(gm, wm) {
					t.Fatalf("trial %d pass %d goal %+v: prepared fork diverges: (%v %v %v) vs (%v %v %v)",
						trial, pass, goal, gm, gc, gok, wm, wc, wok)
				}
			}
		}
	}
}

// TestPipelinePreparedReciprocals: the speed reciprocals a prepared
// pipeline solver builds for its prune-side lower bounds are exactly 1/s,
// and Bandwidth.FullyHomogeneous agrees with the bound platform's test.
func TestPipelinePreparedReciprocals(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(5)
		speeds := make([]float64, p)
		s0 := float64(1 + rng.Intn(5))
		for i := range speeds {
			speeds[i] = s0
			if trial%2 == 1 {
				speeds[i] = float64(1 + rng.Intn(5))
			}
		}
		b := randomBandwidth(rng, p)
		if trial%4 == 0 && b.Uniform == 0 {
			// A uniform bandwidth in table form.
			u := Uniform(speeds, s0)
			b = Bandwidth{Links: u.Band, In: u.InBand, Out: u.OutBand}
		}
		pl := b.Apply(speeds)
		pp, err := NewPipelinePrepared(Pipeline{Weights: []float64{3, 1}, Data: []float64{1, 2, 1}}, pl)
		if err != nil {
			t.Fatal(err)
		}
		for u, s := range pl.Speeds {
			if pp.inv[u] != 1/s {
				t.Fatalf("trial %d: reciprocal mismatch at %d", trial, u)
			}
		}
		if got, want := b.FullyHomogeneous(speeds), pl.IsFullyHomogeneous(); got != want {
			t.Fatalf("trial %d: Bandwidth.FullyHomogeneous = %v, expanded platform says %v", trial, got, want)
		}
	}
}
