package spdecomp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/incumbent"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Byte-identity corpora for the prepared and sharded SP block search.
// Replay diffs recorded costs with ==, so costs are compared exactly and
// blocks with reflect.DeepEqual: repeated goals, scratch reuse, and the
// restricted-growth sharded scan must all reproduce the serial one-shot
// result bit for bit.

func identityGoals(rng *rand.Rand) []Goal {
	return []Goal{
		{},
		{MinimizeLatency: true},
		{PeriodCap: float64(2 + rng.Intn(9))},
		{MinimizeLatency: true, LatencyCap: float64(5 + rng.Intn(20))},
	}
}

// TestSPParallelSerialIdentity: the sharded block search must be
// byte-identical to the serial scan on every goal, at every worker count.
func TestSPParallelSerialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 25; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(8), 9, 4, 3)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		for _, goal := range identityGoals(rng) {
			serial, err := NewPrepared(g, pl)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewPrepared(g, pl)
			if err != nil {
				t.Fatal(err)
			}
			par.SetParallelism(2 + rng.Intn(3))
			sb, sc, sok, err := serial.Exhaustive(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			pb, pc, pok, err := par.Exhaustive(context.Background(), goal)
			if err != nil {
				t.Fatal(err)
			}
			if sok != pok || sc != pc || !reflect.DeepEqual(sb, pb) {
				t.Fatalf("trial %d goal %+v: parallel diverges: %v %v %v vs %v %v %v\n%s",
					trial, goal, pb, pc, pok, sb, sc, sok, g.Render())
			}
		}
	}
}

// TestSPPreparedIdentity: prepared solves — including the second pass's
// re-runs on scratch the first left behind, and the cached heuristic
// candidate set — must equal fresh one-shot Exhaustive calls.
func TestSPPreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 25; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(8), 9, 4, 3)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		pp, err := NewPrepared(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		goals := identityGoals(rng)
		for pass := 0; pass < 2; pass++ {
			for _, goal := range goals {
				gb, gc, gok, err := pp.Exhaustive(context.Background(), goal)
				if err != nil {
					t.Fatal(err)
				}
				wb, wc, wok, err := Exhaustive(context.Background(), g, pl, goal)
				if err != nil {
					t.Fatal(err)
				}
				if gok != wok || gc != wc || !reflect.DeepEqual(gb, wb) {
					t.Fatalf("trial %d pass %d goal %+v: prepared diverges: %v %v %v vs %v %v %v",
						trial, pass, goal, gb, gc, gok, wb, wc, wok)
				}
			}
		}
	}
}

// cutScan runs one serial block scan, with or without the cut of procs,
// and returns its result and the number of mappings it costed.
func cutScan(t *testing.T, g workflow.SP, pl platform.Platform, goal Goal, prune bool) (spMemo, bool, int) {
	t.Helper()
	st, err := newBlockEval(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScanner(st)
	sc.prune = prune
	lb, latencyLB := Bounds(g, pl)
	if goal.MinimizeLatency {
		lb = latencyLB
	}
	r, found, err := sc.scan(context.Background(), goal, lb, incumbent.Prefix{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, found, sc.costed
}

// speedPools are the speed sets of the repeated-speed corpora: integer
// speeds, and fractional ones.
var speedPools = [][]float64{{1, 2, 3, 4, 5}, {0.7, 1.0 / 3, 2.9}}

// TestSPCutIsByteIdentical: the cut only drops assignments the install
// rule rejects, and the equal-speed skip only assignments that relabel
// an earlier one, so the pruned scan returns the unpruned scan's result
// bit for bit, capped goals included. Each trial also runs on a platform
// of one to three speed classes, where the skip fires.
func TestSPCutIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g := workflow.RandomSP(rng, 3+rng.Intn(4), 9, 4, 3)
		p := 2 + rng.Intn(3)
		for _, pl := range []platform.Platform{
			platform.Random(rng, p, 5),
			platform.RandomClasses(rng, p+1, 1+rng.Intn(3), speedPools[rng.Intn(len(speedPools))]),
		} {
			for _, goal := range identityGoals(rng) {
				got, gotOK, _ := cutScan(t, g, pl, goal, true)
				want, wantOK, _ := cutScan(t, g, pl, goal, false)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d goal %+v on %v: cut scan (%v, %v) != full scan (%v, %v)", trial, goal, pl, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestSPCutCostsFewerMappings runs BenchmarkKernelSP's instance set
// (internal/incumbent/kernels_bench_test.go: seed 4, 6-step DAGs on 5
// processors, period on even indices, latency on odd ones) with and
// without the cut: identical results, and at least ten times fewer
// mappings costed over the set — a count that does not move with the
// host, unlike the benchmark's timing. The latency goals' count is
// pinned: 2,497 before cpBound's critical path, 114 with it.
func TestSPCutCostsFewerMappings(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var cutCosted, fullCosted, latencyCosted int
	for k := 0; k < 8; k++ {
		g := workflow.RandomSP(r, 6, 10, 4, 3)
		pl := platform.Random(r, 5, 5)
		goal := Goal{MinimizeLatency: k%2 == 1}
		got, gotOK, n := cutScan(t, g, pl, goal, true)
		want, wantOK, wantN := cutScan(t, g, pl, goal, false)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: cut scan (%v, %v) != full scan (%v, %v)", k, got, gotOK, want, wantOK)
		}
		cutCosted += n
		fullCosted += wantN
		if goal.MinimizeLatency {
			latencyCosted += n
		}
	}
	t.Logf("sp: %d mappings costed with the cut, %d without", cutCosted, fullCosted)
	if 10*cutCosted > fullCosted {
		t.Errorf("sp: the cut costs %d mappings against %d without it, want at least 10x fewer", cutCosted, fullCosted)
	}
	if latencyCosted != 114 {
		t.Errorf("sp: the latency goals cost %d mappings, want 114", latencyCosted)
	}
}
