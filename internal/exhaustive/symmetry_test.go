package exhaustive

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The pruned searches skip every processor subset that only relabels
// equal-speed processors (see relabels). These tests check the skip
// against the searches that do not skip — the unpruned DP and scans,
// byte for byte — and against the enumeration oracles, and pin the work
// it removes.

// objective is one of the four solve shapes of a prepared solver.
type objective struct {
	name           string
	minimizePeriod bool
	bound          float64
}

// objectives returns the four shapes, the bounded ones at the period and
// the latency of a random point of front, so that both are feasible.
func objectives(rng *rand.Rand, front []mapping.Cost) []objective {
	k := rng.Intn(len(front))
	return []objective{
		{"period", true, numeric.Inf},
		{"latency", false, numeric.Inf},
		{"latency-under-period", false, front[k].Period},
		{"period-under-latency", true, front[k].Latency},
	}
}

func (o objective) accept(c mapping.Cost) bool {
	if o.minimizePeriod {
		return numeric.LessEq(c.Latency, o.bound)
	}
	return numeric.LessEq(c.Period, o.bound)
}

func (o objective) value(c mapping.Cost) float64 {
	if o.minimizePeriod {
		return c.Period
	}
	return c.Latency
}

// optimum is the least value o admits among costs: on every cost, or on
// the front, which weakly dominates them all, the oracle's answer.
func (o objective) optimum(costs []mapping.Cost) float64 {
	best := numeric.Inf
	for _, c := range costs {
		if o.accept(c) {
			best = min(best, o.value(c))
		}
	}
	return best
}

// TestSymmetrySkipMatchesOracles: on platforms of one to three speed
// classes, integer and fractional, the pruned solvers — every objective
// at 1 and 3 workers, before and after a front pass — return the
// unpruned searches' results byte for byte and the enumeration oracles'
// optima, and their front passes return the enumeration's fronts.
func TestSymmetrySkipMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	for trial := 0; trial < 48; trial++ {
		dp := trial%4 < 2
		pool := speedPools[trial%2]

		// Pipelines: the unpruned solver walks every subset.
		p := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pl := platform.RandomClasses(rng, 2+rng.Intn(4), 1+rng.Intn(3), pool)
		var costs []mapping.Cost
		enumeratePipeline(p, pl, dp, func(_ mapping.PipelineMapping, c mapping.Cost) { costs = append(costs, c) })
		oracle := filterFront(costs)
		objs := objectives(rng, oracle)
		for _, workers := range []int{1, 3} {
			pp, plain := NewPipelinePrepared(p, pl, dp), NewPipelinePrepared(p, pl, dp)
			pp.SetParallelism(workers)
			plain.s.prune = false
			for _, pass := range []string{"dp", "walk"} {
				if pass == "walk" {
					got, err := pp.Front(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.Front(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || !sameFront(got, oracle) {
						t.Fatalf("trial %d pipeline: front %v, unpruned %v, enumeration %v for %v on %v dp=%v",
							trial, got, want, oracle, p, pl, dp)
					}
				}
				for _, o := range objs {
					got, ok, err := pp.Solve(ctx, o.minimizePeriod, o.bound)
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK, err := plain.Solve(ctx, o.minimizePeriod, o.bound)
					if err != nil {
						t.Fatal(err)
					}
					if ok != wantOK || !reflect.DeepEqual(got, want) || !ok || !numeric.Eq(o.value(got.Cost), o.optimum(oracle)) {
						t.Fatalf("trial %d pipeline %s (%s, %d workers): (%v, %v), unpruned (%v, %v), optimum %v for %v on %v dp=%v",
							trial, o.name, pass, workers, got, ok, want, wantOK, o.optimum(oracle), p, pl, dp)
					}
				}
			}
		}

		// Forks and fork-joins: the unpruned scan runs without a cut.
		pl = platform.RandomClasses(rng, 2+rng.Intn(3), 1+rng.Intn(3), pool)
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		checkScanSymmetry(t, "fork", trial, resultCosts(ForkPareto(f, pl, dp)),
			func() *ForkPrepared { return NewForkPrepared(f, pl, dp) },
			func(o objective) (ForkJoinResult, bool, error) { return forkScan(ctx, f, pl, dp, o.accept, o.value, 0) })
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 9)
		checkScanSymmetry(t, "fork-join", trial, resultCosts(forkJoinPareto(fj, pl, dp)),
			func() *ForkJoinPrepared { return NewForkJoinPrepared(fj, pl, dp) },
			func(o objective) (ForkJoinResult, bool, error) {
				return forkJoinScan(ctx, fj, pl, dp, o.accept, o.value, 0)
			})
	}
}

// checkScanSymmetry runs one fork or fork-join instance: the pruned
// solver's four objectives at 1 and 3 workers, unseeded and seeded by a
// front pass, against the unpruned scan (plain) and the enumeration's
// Pareto front (oracle).
func checkScanSymmetry(t *testing.T, kind string, trial int, oracle []mapping.Cost,
	newSolver func() *ForkJoinPrepared, plain func(objective) (ForkJoinResult, bool, error)) {
	t.Helper()
	ctx := context.Background()
	for _, o := range objectives(rand.New(rand.NewSource(int64(trial))), oracle) {
		want, wantOK, err := plain(o)
		if err != nil {
			t.Fatal(err)
		}
		if !wantOK || !numeric.Eq(o.value(want.Cost), o.optimum(oracle)) {
			t.Fatalf("trial %d %s %s: unpruned scan (%v, %v), enumeration front %v", trial, kind, o.name, want, wantOK, oracle)
		}
		for _, workers := range []int{1, 3} {
			sp := newSolver()
			sp.SetParallelism(workers)
			for _, seeded := range []bool{false, true} {
				if seeded {
					front, err := sp.Front(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFront(front, oracle) {
						t.Fatalf("trial %d %s: front %v, enumeration %v", trial, kind, front, oracle)
					}
				}
				got, ok, err := sp.Solve(ctx, o.minimizePeriod, o.bound)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %s (%d workers, seeded %v): (%v, %v), unpruned (%v, %v)",
						trial, kind, o.name, workers, seeded, got, ok, want, wantOK)
				}
			}
		}
	}
}

// symmetryCounts returns the deterministic work counters of the pruned
// solvers on one platform: the states the pipeline front pass lists, and
// the scan nodes of a fork and a fork-join front pass followed by their
// min-period and min-latency solves.
func symmetryCounts(t *testing.T, pl platform.Platform) (listed, forkNodes, fjNodes int) {
	t.Helper()
	ctx := context.Background()
	pp := NewPipelinePrepared(workflow.NewPipeline(3, 3, 10, 2, 1, 9, 10, 8, 7, 3), pl, true)
	if _, err := pp.Front(ctx); err != nil {
		t.Fatal(err)
	}
	fp := NewForkPrepared(workflow.NewFork(4, 7, 2, 9, 5), pl, true)
	fjp := NewForkJoinPrepared(workflow.NewForkJoin(4, 6, 7, 2, 9), pl, true)
	for _, solve := range []func(context.Context) error{
		func(ctx context.Context) error { _, err := fp.Front(ctx); return err },
		func(ctx context.Context) error { _, _, err := fp.Period(ctx); return err },
		func(ctx context.Context) error { _, _, err := fp.Latency(ctx); return err },
		func(ctx context.Context) error { _, err := fjp.Front(ctx); return err },
		func(ctx context.Context) error { _, _, err := fjp.Period(ctx); return err },
		func(ctx context.Context) error { _, _, err := fjp.Latency(ctx); return err },
	} {
		if err := solve(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return len(pp.s.listed), fp.search.own.e.nodes, fjp.search.own.e.nodes
}

// TestSymmetrySkipCounters pins the work the equal-speed skip removes,
// in counts that do not move with the host. before is what the search
// counted without the skip. On six processors of speeds {2, 1, 2, 5, 1,
// 2} every count falls; with the speeds made distinct nothing relabels,
// and every count stays where it was.
func TestSymmetrySkipCounters(t *testing.T) {
	type counts struct{ listed, forkNodes, fjNodes int }
	for _, c := range []struct {
		name          string
		pl            platform.Platform
		before, after counts
	}{
		{"repeated", platform.New(2, 1, 2, 5, 1, 2), counts{462, 6848, 20026}, counts{170, 2607, 5564}},
		{"distinct", platform.New(2, 1.0625, 2.125, 5.1875, 1.25, 2.3125), counts{463, 7190, 21740}, counts{463, 7190, 21740}},
	} {
		var got counts
		got.listed, got.forkNodes, got.fjNodes = symmetryCounts(t, c.pl)
		if got != c.after {
			t.Errorf("%s: (listed states, fork nodes, fork-join nodes) = %v, want %v (%v without the skip)", c.name, got, c.after, c.before)
		}
	}
}
