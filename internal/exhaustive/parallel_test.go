package exhaustive

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The sharded scans promise byte-identical results to the one-worker
// scan for every worker count. These corpora force several workers
// (SetParallelism on prepared solvers bypasses core's crossover
// heuristic) and compare whole results — mapping, cost and found flag —
// against fresh one-worker solvers with reflect.DeepEqual; the golden
// corpus of internal/incumbent checks both against recorded answers.

// TestParallelShardsTileEnumeration pins the foundation the
// deterministic merge rests on: the shards of incumbent.PartitionShards, scanned
// in shard index order, visit exactly the serial enumeration's mapping
// sequence — same mappings, same costs, same order.
func TestParallelShardsTileEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0

		type visit struct {
			m mapping.ForkJoinMapping
			c mapping.Cost
		}
		var serial []visit
		newFJEnum(joinless(f), false, pl, dp, buildMaskInfo(pl)).runFrom(ctx, nil, 0, nil, func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
			serial = append(serial, visit{m.Clone(), c})
			return true
		})

		var sharded []visit
		e := newFJEnum(joinless(f), false, pl, dp, buildMaskInfo(pl))
		for _, sh := range incumbent.PartitionShards(f.Leaves()+1, pl.Processors(), 2+rng.Intn(4)) {
			e.runFrom(ctx, sh.Assign, sh.Used, nil, func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
				sharded = append(sharded, visit{m.Clone(), c})
				return true
			})
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("trial %d: shards do not tile the serial enumeration (%d serial vs %d sharded visits) for %v on %v dp=%v",
				trial, len(serial), len(sharded), f, pl, dp)
		}
	}
}

// TestParallelForkScanIdentity: the partitioned fork scan returns
// byte-identical results to the serial scan, across objectives, bounds
// and worker counts.
func TestParallelForkScanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		dp := trial%2 == 0
		par := 2 + rng.Intn(3)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, solve func(fp *ForkPrepared) (ForkJoinResult, bool, error)) {
			t.Helper()
			sp := NewForkPrepared(f, pl, dp)
			want, wantOK, err := solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := NewForkPrepared(f, pl, dp)
			pp.SetParallelism(par)
			got, gotOK, err := solve(pp)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s par=%d: parallel (%v, %v) != serial (%v, %v) for %v on %v dp=%v",
					trial, name, par, got, gotOK, want, wantOK, f, pl, dp)
			}
		}
		check("period", func(fp *ForkPrepared) (ForkJoinResult, bool, error) { return fp.Period(ctx) })
		check("latency", func(fp *ForkPrepared) (ForkJoinResult, bool, error) { return fp.Latency(ctx) })
		check("lup", func(fp *ForkPrepared) (ForkJoinResult, bool, error) { return fp.LatencyUnderPeriod(ctx, b) })
		check("pul", func(fp *ForkPrepared) (ForkJoinResult, bool, error) { return fp.PeriodUnderLatency(ctx, b) })
	}
}

// TestParallelForkJoinScanIdentity is the fork-join mirror of
// TestParallelForkScanIdentity.
func TestParallelForkJoinScanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		par := 2 + rng.Intn(3)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, solve func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error)) {
			t.Helper()
			sp := NewForkJoinPrepared(fj, pl, dp)
			want, wantOK, err := solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := NewForkJoinPrepared(fj, pl, dp)
			pp.SetParallelism(par)
			got, gotOK, err := solve(pp)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s par=%d: parallel (%v, %v) != serial (%v, %v) for %v on %v dp=%v",
					trial, name, par, got, gotOK, want, wantOK, fj, pl, dp)
			}
		}
		check("period", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) { return fp.Period(ctx) })
		check("latency", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) { return fp.Latency(ctx) })
		check("lup", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) { return fp.LatencyUnderPeriod(ctx, b) })
		check("pul", func(fp *ForkJoinPrepared) (ForkJoinResult, bool, error) { return fp.PeriodUnderLatency(ctx, b) })
	}
}

// TestParallelPipelineSweepIdentity: the level-synchronous parallel DP
// sweep fills a table bit-equal to the serial recursion's — same values,
// same recorded choices, so the same reconstructed mapping — across
// objectives, period caps and worker counts. A second solve on the same
// prepared instance exercises the epoch reset under the sweep.
func TestParallelPipelineSweepIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(6), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		dp := trial%2 == 0
		par := 2 + rng.Intn(3)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, solve func(pp *PipelinePrepared) (PipelineResult, bool, error)) {
			t.Helper()
			sp := NewPipelinePrepared(p, pl, dp)
			want, wantOK, err := solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			pp := NewPipelinePrepared(p, pl, dp)
			pp.SetParallelism(par)
			got, gotOK, err := solve(pp)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s par=%d: parallel (%v, %v) != serial (%v, %v) for %v on %v dp=%v",
					trial, name, par, got, gotOK, want, wantOK, p, pl, dp)
			}
		}
		check("period", func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.Period(ctx) })
		check("latency", func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.Latency(ctx) })
		check("lup", func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.LatencyUnderPeriod(ctx, b) })
		check("pul", func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.PeriodUnderLatency(ctx, b) })
		check("lup-then-period", func(pp *PipelinePrepared) (PipelineResult, bool, error) {
			if _, _, err := pp.LatencyUnderPeriod(ctx, b); err != nil {
				return PipelineResult{}, false, err
			}
			return pp.Period(ctx)
		})
	}
}

// TestPipelinePeriodSolveSkipsSweep: a period solve takes the recursion
// at every worker count, since its PeriodLB cut skips states the level
// sweep would fill, so it marks exactly the states a serial solve marks;
// a latency solve at 2 workers still sweeps, and marks more.
func TestPipelinePeriodSolveSkipsSweep(t *testing.T) {
	p := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pl := platform.New(50, 40, 30, 31, 20, 21, 10, 11)
	ctx := context.Background()
	filled := func(par int, solve func(pp *PipelinePrepared) (PipelineResult, bool, error)) int {
		pp := NewPipelinePrepared(p, pl, true)
		pp.SetParallelism(par)
		if _, _, err := solve(pp); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range pp.s.visited {
			if e == pp.s.epoch {
				n++
			}
		}
		return n
	}
	period := func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.Period(ctx) }
	latency := func(pp *PipelinePrepared) (PipelineResult, bool, error) { return pp.Latency(ctx) }
	if serial, par := filled(1, period), filled(2, period); par != serial {
		t.Errorf("period solve at 2 workers filled %d states, the serial one %d", par, serial)
	}
	if serial, par := filled(1, latency), filled(2, latency); par <= serial {
		t.Errorf("latency solve at 2 workers filled %d states, the serial one %d: want the sweep", par, serial)
	}
}

// TestParallelScanCancellationPrompt: cancelling the context of a
// partitioned scan must stop every shard worker promptly — the solve on
// an instance whose full scan takes seconds returns with ctx.Err() in a
// small fraction of that. The instance is a period minimization whose
// serial cut scan, look-ahead bound included, still runs for about 22 s
// on a 2.1 GHz Xeon (5 s of wall time even spread over four cores, and
// far longer under the race detector): neither the cut, the incumbent
// bound nor the anytime lower bound ends it early on its own, so only
// cancellation can meet the time bound.
func TestParallelScanCancellationPrompt(t *testing.T) {
	f := workflow.NewFork(3, 3, 5, 7, 8, 9, 5, 7, 6, 8, 4, 3)
	pl := platform.New(4, 5, 2, 1, 3, 2, 1)
	fp := NewForkPrepared(f, pl, true)
	fp.SetParallelism(4)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, found, err := fp.Period(ctx)
	elapsed := time.Since(start)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parallel scan returned (found=%v, err=%v), want context.Canceled", found, err)
	}
	// A prompt stop takes tens of milliseconds even under the race
	// detector; a scan that ignored cancellation would take seconds.
	if elapsed > time.Second {
		t.Fatalf("parallel scan took %v to honor cancellation", elapsed)
	}
}
