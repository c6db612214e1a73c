package spdecomp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestSPSymmetrySkipMatchesUnprunedScan: on platforms of one to three
// speed classes, integer and fractional, the pruned block search — which
// tries only the lowest-index unused processor of each speed per block —
// returns the unpruned scan's result byte for byte on every goal, at 1
// and 3 workers.
func TestSPSymmetrySkipMatchesUnprunedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 40; trial++ {
		g := workflow.RandomSP(rng, 3+rng.Intn(4), 9, 4, 3)
		pl := platform.RandomClasses(rng, 2+rng.Intn(4), 1+rng.Intn(3), speedPools[trial%2])
		for _, goal := range identityGoals(rng) {
			want, wantOK, _ := cutScan(t, g, pl, goal, false)
			for _, workers := range []int{1, 3} {
				pp, err := NewPrepared(g, pl)
				if err != nil {
					t.Fatal(err)
				}
				pp.SetParallelism(workers)
				blocks, c, ok, err := pp.Exhaustive(context.Background(), goal)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || c != want.c || !reflect.DeepEqual(blocks, want.blocks) {
					t.Fatalf("trial %d goal %+v on %v (%d workers): (%v, %v, %v), unpruned (%v, %v, %v)\n%s",
						trial, goal, pl, workers, blocks, c, ok, want.blocks, want.c, wantOK, g.Render())
				}
			}
		}
	}
}

// TestSPSymmetrySkipCounters pins the mappings the pruned scan costs
// over BenchmarkKernelSP's goals (min period, then min latency) on one
// 6-step DAG, a count that does not move with the host. before is what
// the scan costed without the equal-speed skip. On five processors of
// speeds {3, 1, 3, 1, 3} the count falls; with the speeds made distinct
// nothing relabels, and it stays where it was.
func TestSPSymmetrySkipCounters(t *testing.T) {
	g := workflow.RandomSP(rand.New(rand.NewSource(4)), 6, 10, 4, 3)
	for _, c := range []struct {
		name          string
		pl            platform.Platform
		before, after int
	}{
		{"repeated", platform.New(3, 1, 3, 1, 3), 234, 36},
		{"distinct", platform.New(3, 1.0625, 3.125, 1.1875, 3.25), 819, 819},
	} {
		costed := 0
		for _, goal := range []Goal{{}, {MinimizeLatency: true}} {
			_, _, n := cutScan(t, g, c.pl, goal, true)
			costed += n
		}
		if costed != c.after {
			t.Errorf("%s: %d mappings costed, want %d (%d without the skip)", c.name, costed, c.after, c.before)
		}
	}
}
