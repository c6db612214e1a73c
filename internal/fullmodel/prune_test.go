package fullmodel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/numeric"
)

// The interval scan is a branch and bound: pruneInterval drops an
// interval whose work alone breaks the period cap or bound, and
// cutAhead drops a node whose look-ahead latency already breaks the
// latency cap or bound. Both only skip mappings the install rule would
// reject, so the scan must return the unpruned enumeration's answer bit
// for bit. These tests hold it to that, and pin how much it skips.

// bruteSolve is the unpruned scan: every interval mapping in the
// interval scan's order (end stage, then processor), installed on
// strict improvement of the goal's value among the feasible ones.
func bruteSolve(p Pipeline, pl Platform, goal Goal) (Mapping, Cost, bool) {
	var bestM, cur Mapping
	var bestC Cost
	found := false
	var walk func(i, mask int)
	walk = func(i, mask int) {
		if i == p.Stages() {
			c := evalTrusted(p, pl, cur)
			if goal.feasible(c) && (!found || numeric.Less(goal.value(c), goal.value(bestC))) {
				bestM, bestC, found = cloneMapping(cur), c, true
			}
			return
		}
		for j := i; j < p.Stages(); j++ {
			for u := 0; u < pl.Processors(); u++ {
				if mask&(1<<u) != 0 {
					continue
				}
				cur.Bounds, cur.Alloc = append(cur.Bounds, j+1), append(cur.Alloc, u)
				walk(j+1, mask|1<<u)
				cur.Bounds, cur.Alloc = cur.Bounds[:len(cur.Bounds)-1], cur.Alloc[:len(cur.Alloc)-1]
			}
		}
	}
	walk(0, 0)
	return bestM, bestC, found
}

// TestCommCutMatchesUnprunedScan: on every goal — caps set at the
// unbounded optima, so they touch the optimum exactly, and at loose and
// infeasible multiples of them — the pruned scan returns the unpruned
// scan's mapping and cost bits at one and at three workers.
func TestCommCutMatchesUnprunedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		p := randomCommPipeline(rng, 2+rng.Intn(5))
		pl := randomHetPlatform(rng, 2+rng.Intn(3))
		_, per, _ := bruteSolve(p, pl, Goal{MinimizePeriod: true})
		_, lat, _ := bruteSolve(p, pl, Goal{})
		scale := []float64{1, 1.25, 0.5}[trial%3]
		goals := []Goal{
			{MinimizePeriod: true},
			{},
			{PeriodCap: per.Period * scale},
			{MinimizePeriod: true, LatencyCap: lat.Latency * scale},
			{PeriodCap: per.Period * scale, LatencyCap: lat.Latency * 1.25},
		}
		for _, goal := range goals {
			wantM, wantC, wantOK := bruteSolve(p, pl, goal)
			for _, par := range []int{1, 3} {
				pp, err := NewPipelinePrepared(p, pl)
				if err != nil {
					t.Fatal(err)
				}
				pp.SetParallelism(par)
				m, c, ok, err := pp.SolveExact(ctx, goal)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || c != wantC || !reflect.DeepEqual(m, wantM) {
					t.Fatalf("trial %d goal %+v par %d: pruned (%v %v %v), unpruned (%v %v %v)",
						trial, goal, par, m, c, ok, wantM, wantC, wantOK)
				}
			}
		}
	}
}

// TestCommCutVisitsFewerNodes runs BenchmarkKernelComm's instance set
// (internal/incumbent/kernels_bench_test.go: seed 5, 6 stages of weight
// 1..10 on 5 processors, speeds, data sizes and per-link bandwidths
// 1..5; period on even indices, latency on odd ones) and checks every
// answer against the unpruned scan. The walk-node count is
// deterministic, unlike the benchmark's timings: without the look-ahead
// latency bound the scans visit 23,440 nodes.
func TestCommCutVisitsFewerNodes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	draw := func(n, hi int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(1 + r.Intn(hi))
		}
		return v
	}
	nodes := 0
	for k := 0; k < 8; k++ {
		p := NewPipeline(draw(6, 10), draw(7, 5))
		speeds := draw(5, 5)
		bw := Bandwidth{Links: make([][]float64, 5), In: draw(5, 5), Out: draw(5, 5)}
		for u := range bw.Links {
			bw.Links[u] = draw(5, 5)
			bw.Links[u][u] = 0
		}
		pl := bw.Apply(speeds)
		pp, err := NewPipelinePrepared(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		m, c, ok, err := pp.SolveExact(context.Background(), Goal{MinimizePeriod: k%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		nodes += pp.search.own.nodes
		wantM, wantC, wantOK := bruteSolve(p, pl, Goal{MinimizePeriod: k%2 == 0})
		if ok != wantOK || c != wantC || !reflect.DeepEqual(m, wantM) {
			t.Fatalf("instance %d: scan (%v %v %v), unpruned scan (%v %v %v)", k, m, c, ok, wantM, wantC, wantOK)
		}
	}
	t.Logf("comm: %d walk nodes", nodes)
	if nodes > 13000 {
		t.Errorf("comm: the scans visit %d walk nodes, want at most 13000", nodes)
	}
}
