package exhaustive

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// A prepared solver answering a sequence of objective/bound solves must be
// byte-identical to a freshly constructed solver per solve — resetting the
// DP epoch and reusing enumeration scratch may never change a result.
// These corpora run interleaved objective sequences so every solve of a
// prepared instance executes on dirty scratch.

func TestPipelinePreparedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		dp := trial%2 == 0
		pp := NewPipelinePrepared(p, pl, dp)

		type solve struct {
			name    string
			prep    func() (PipelineResult, bool, error)
			oneshot func() (PipelineResult, bool, error)
		}
		b1 := float64(1+rng.Intn(6)) / 2
		b2 := float64(1+rng.Intn(8)) / 2
		solves := []solve{
			{"period", func() (PipelineResult, bool, error) { return pp.Period(ctx) },
				func() (PipelineResult, bool, error) { return NewPipelinePrepared(p, pl, dp).Period(ctx) }},
			{"lup", func() (PipelineResult, bool, error) { return pp.LatencyUnderPeriod(ctx, b1) },
				func() (PipelineResult, bool, error) {
					return NewPipelinePrepared(p, pl, dp).LatencyUnderPeriod(ctx, b1)
				}},
			{"latency", func() (PipelineResult, bool, error) { return pp.Latency(ctx) },
				func() (PipelineResult, bool, error) { return NewPipelinePrepared(p, pl, dp).Latency(ctx) }},
			{"pul", func() (PipelineResult, bool, error) { return pp.PeriodUnderLatency(ctx, b2) },
				func() (PipelineResult, bool, error) {
					return NewPipelinePrepared(p, pl, dp).PeriodUnderLatency(ctx, b2)
				}},
			// Repeats re-run a bound on scratch other bounds left behind.
			{"lup-repeat", func() (PipelineResult, bool, error) { return pp.LatencyUnderPeriod(ctx, b1) },
				func() (PipelineResult, bool, error) {
					return NewPipelinePrepared(p, pl, dp).LatencyUnderPeriod(ctx, b1)
				}},
			{"period-repeat", func() (PipelineResult, bool, error) { return pp.Period(ctx) },
				func() (PipelineResult, bool, error) { return NewPipelinePrepared(p, pl, dp).Period(ctx) }},
		}
		for _, s := range solves {
			got, gotOK, err := s.prep()
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, err := s.oneshot()
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: prepared (%v, %v) != fresh (%v, %v) for %v on %v dp=%v",
					trial, s.name, got, gotOK, want, wantOK, p, pl, dp)
			}
		}
	}
}

func TestForkPreparedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		fp := NewForkPrepared(f, pl, dp)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, prep, oneshot func() (ForkJoinResult, bool, error)) {
			t.Helper()
			got, gotOK, err := prep()
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, err := oneshot()
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: prepared (%v, %v) != fresh (%v, %v) for %v on %v dp=%v",
					trial, name, got, gotOK, want, wantOK, f, pl, dp)
			}
		}
		check("latency", func() (ForkJoinResult, bool, error) { return fp.Latency(ctx) },
			func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).Latency(ctx) })
		check("pul", func() (ForkJoinResult, bool, error) { return fp.PeriodUnderLatency(ctx, b) },
			func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).PeriodUnderLatency(ctx, b) })
		check("period", func() (ForkJoinResult, bool, error) { return fp.Period(ctx) },
			func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).Period(ctx) })
		check("lup", func() (ForkJoinResult, bool, error) { return fp.LatencyUnderPeriod(ctx, b) },
			func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).LatencyUnderPeriod(ctx, b) })
		check("lup-repeat", func() (ForkJoinResult, bool, error) { return fp.LatencyUnderPeriod(ctx, b) },
			func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).LatencyUnderPeriod(ctx, b) })
	}
}

func TestForkJoinPreparedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		fp := NewForkJoinPrepared(fj, pl, dp)
		b := float64(1+rng.Intn(8)) / 2

		check := func(name string, prep, oneshot func() (ForkJoinResult, bool, error)) {
			t.Helper()
			got, gotOK, err := prep()
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, err := oneshot()
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: prepared (%v, %v) != fresh (%v, %v) for %v on %v dp=%v",
					trial, name, got, gotOK, want, wantOK, fj, pl, dp)
			}
		}
		check("period", func() (ForkJoinResult, bool, error) { return fp.Period(ctx) },
			func() (ForkJoinResult, bool, error) { return NewForkJoinPrepared(fj, pl, dp).Period(ctx) })
		check("lup", func() (ForkJoinResult, bool, error) { return fp.LatencyUnderPeriod(ctx, b) },
			func() (ForkJoinResult, bool, error) {
				return NewForkJoinPrepared(fj, pl, dp).LatencyUnderPeriod(ctx, b)
			})
		check("latency", func() (ForkJoinResult, bool, error) { return fp.Latency(ctx) },
			func() (ForkJoinResult, bool, error) { return NewForkJoinPrepared(fj, pl, dp).Latency(ctx) })
		check("pul", func() (ForkJoinResult, bool, error) { return fp.PeriodUnderLatency(ctx, b) },
			func() (ForkJoinResult, bool, error) {
				return NewForkJoinPrepared(fj, pl, dp).PeriodUnderLatency(ctx, b)
			})
		check("pul-repeat", func() (ForkJoinResult, bool, error) { return fp.PeriodUnderLatency(ctx, b) },
			func() (ForkJoinResult, bool, error) {
				return NewForkJoinPrepared(fj, pl, dp).PeriodUnderLatency(ctx, b)
			})
	}
}

// TestPipelinePreparedParetoMatchesPointwise: the prepared-solver
// PipelinePareto must equal the front assembled from one-shot solvers —
// the front pass and the bounded solve per point are exercised end to
// end.
func TestPipelinePreparedParetoMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		front := PipelinePareto(p, pl, dp)
		var want []PipelineResult
		prevLatency := numeric.Inf
		for _, k := range pipelinePeriodCandidates(p, buildMaskInfo(pl), dp) {
			res, ok := PipelineLatencyUnderPeriod(p, pl, dp, k)
			if !ok || numeric.GreaterEq(res.Cost.Latency, prevLatency) {
				continue
			}
			if tight, ok := PipelinePeriodUnderLatency(p, pl, dp, res.Cost.Latency); ok {
				res = tight
			}
			want = append(want, res)
			prevLatency = res.Cost.Latency
		}
		if !reflect.DeepEqual(front, want) {
			t.Fatalf("trial %d: prepared Pareto front diverges\n got %v\nwant %v", trial, front, want)
		}
	}
}

// TestPlatformTableShared: a prepared fork or fork-join solver builds one
// platform table, and every shard worker's enumerator aliases it instead
// of building its own.
func TestPlatformTableShared(t *testing.T) {
	pl := platform.New(3, 2, 1)
	fp := NewForkPrepared(workflow.NewFork(4, 5, 3, 2, 6), pl, true)
	fjp := NewForkJoinPrepared(workflow.NewForkJoin(4, 2, 5, 3, 2, 6), pl, true)
	ta := checkOneTable(t, "fork", fp)
	checkOneTable(t, "fork-join", fjp)
	// Precomputed procs expand the masks correctly.
	if got := ta[0b101].procs; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("procs(0b101) = %v, want [0 2]", got)
	}
	if got := ta[0b101]; got.count != 2 || got.min != 1 || got.max != 3 || got.sum != 4 {
		t.Errorf("maskInfo(0b101) = %+v", got)
	}
}

// checkOneTable solves sp at parallelism 3 and reports an error for any
// worker enumerator whose table is not the solver's own, which it
// returns. Workers that claimed no shard are never built, so fresh() —
// the constructor of every worker — is checked directly as well.
func checkOneTable(t *testing.T, name string, sp *ForkJoinPrepared) []maskInfo {
	t.Helper()
	sp.SetParallelism(3)
	if _, _, err := sp.Latency(context.Background()); err != nil {
		t.Fatal(err)
	}
	own := sp.search.own.e.info
	enums := []*fjEnum{sp.search.own.e.fresh()}
	for _, st := range sp.search.extra {
		if st != nil {
			enums = append(enums, st.e)
		}
	}
	for i, e := range enums {
		if got := e.info; &got[0] != &own[0] {
			t.Errorf("%s: worker enumerator %d built its own platform table", name, i)
		}
	}
	return own
}

// TestPipelinePreparedReusesArrays: the epoch reset must not reallocate
// the DP arrays between solves.
func TestPipelinePreparedReusesArrays(t *testing.T) {
	p := workflow.NewPipeline(5, 3, 2)
	pl := platform.New(2, 1, 1)
	pp := NewPipelinePrepared(p, pl, true)
	ctx := context.Background()
	if _, _, err := pp.LatencyUnderPeriod(ctx, 4); err != nil {
		t.Fatal(err)
	}
	memo := &pp.s.memo[0]
	if _, _, err := pp.LatencyUnderPeriod(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pp.Period(ctx); err != nil {
		t.Fatal(err)
	}
	if memo != &pp.s.memo[0] {
		t.Error("prepared solver reallocated its DP arrays on reset")
	}
}
