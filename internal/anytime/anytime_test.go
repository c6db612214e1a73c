package anytime_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repliflow/internal/anytime"
	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestBoundsUnderlieExhaustiveOptima checks the certification invariant
// behind every reported gap: on randomized small instances, the cheap
// lower bounds never exceed the true (exhaustive) optimum, for both
// criteria, with and without data-parallelism.
func TestBoundsUnderlieExhaustiveOptima(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		for _, dp := range []bool{false, true} {
			p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
			if res, ok := exhaustive.PipelinePeriod(p, pl, dp); ok {
				lb := anytime.PipelineLB(p, pl, anytime.Spec{MinimizePeriod: true, AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Period) {
					t.Fatalf("pipeline period LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Period, dp, p, pl)
				}
			}
			if res, ok := exhaustive.PipelineLatency(p, pl, dp); ok {
				lb := anytime.PipelineLB(p, pl, anytime.Spec{AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Latency) {
					t.Fatalf("pipeline latency LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Latency, dp, p, pl)
				}
			}

			// A fork's bound is its joinless fork-join's.
			f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
			joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
			if res, ok := exhaustive.ForkPeriod(f, pl, dp); ok {
				lb := anytime.ForkJoinLB(joinless, pl, anytime.Spec{MinimizePeriod: true, AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Period) {
					t.Fatalf("fork period LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Period, dp, f, pl)
				}
			}
			if res, ok := exhaustive.ForkLatency(f, pl, dp); ok {
				lb := anytime.ForkJoinLB(joinless, pl, anytime.Spec{AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Latency) {
					t.Fatalf("fork latency LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Latency, dp, f, pl)
				}
			}

			fj := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 9)
			if res, ok := exhaustive.ForkJoinPeriod(fj, pl, dp); ok {
				lb := anytime.ForkJoinLB(fj, pl, anytime.Spec{MinimizePeriod: true, AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Period) {
					t.Fatalf("fork-join period LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Period, dp, fj, pl)
				}
			}
			if res, ok := exhaustive.ForkJoinLatency(fj, pl, dp); ok {
				lb := anytime.ForkJoinLB(fj, pl, anytime.Spec{AllowDP: dp})
				if numeric.Greater(lb, res.Cost.Latency) {
					t.Fatalf("fork-join latency LB %g > optimum %g (dp=%v, %v on %v)", lb, res.Cost.Latency, dp, fj, pl)
				}
			}
		}
	}
}

// TestPortfolioNeverWorseThanSeeds is the portfolio's core guarantee:
// whatever the budget, the result objective never exceeds the best
// seed's.
func TestPortfolioNeverWorseThanSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		p := workflow.RandomPipeline(rng, 6+rng.Intn(6), 20)
		pl := platform.Random(rng, 6+rng.Intn(6), 5)
		spec := anytime.Spec{MinimizePeriod: trial%2 == 0, AllowDP: true}
		seeds := []mapping.PipelineMapping{
			mapping.ReplicateAllPipeline(p, pl),
		}
		bestSeed, err := mapping.EvalPipeline(p, pl, seeds[0])
		if err != nil {
			t.Fatal(err)
		}
		res, err := anytime.SolvePipeline(context.Background(), p, pl, spec, seeds,
			anytime.Config{Seed: int64(trial), MaxIterations: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("trial %d: infeasible result despite a valid seed", trial)
		}
		if numeric.Greater(spec.Objective(res.Cost), spec.Objective(bestSeed)) {
			t.Errorf("trial %d: portfolio %g worse than seed %g", trial, spec.Objective(res.Cost), spec.Objective(bestSeed))
		}
		if res.Gap < 0 {
			t.Errorf("trial %d: negative gap %g", trial, res.Gap)
		}
		if res.LowerBound <= 0 {
			t.Errorf("trial %d: non-positive lower bound %g", trial, res.LowerBound)
		}
		// The returned mapping must actually achieve the reported cost.
		got, err := mapping.EvalPipeline(p, pl, *res.Pipeline)
		if err != nil {
			t.Fatalf("trial %d: invalid result mapping: %v", trial, err)
		}
		if !numeric.Eq(got.Period, res.Cost.Period) || !numeric.Eq(got.Latency, res.Cost.Latency) {
			t.Errorf("trial %d: reported cost %v, evaluated %v", trial, res.Cost, got)
		}
	}
}

// TestPortfolioExactMemberCertifies runs the portfolio with an exact
// member on small forks, as fork-joins without a join: the result must
// be certified optimal with gap 0 at exactly the exhaustive optimum, and
// joinless. The exact member hands over the joinless scan's fork-join
// mapping as it is.
func TestPortfolioExactMemberCertifies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		spec := anytime.Spec{MinimizePeriod: true, AllowDP: true}
		want, ok := exhaustive.ForkPeriod(f, pl, true)
		if !ok {
			t.Fatal("exhaustive found no mapping")
		}
		cfg := anytime.Config{
			Seed: int64(trial),
			Exact: func(ctx context.Context) (anytime.Exact, error) {
				res, ok, err := exhaustive.NewForkPrepared(f, pl, true).Period(ctx)
				if err != nil {
					return anytime.Exact{}, err
				}
				return anytime.Exact{ForkJoin: &res.Mapping, Cost: res.Cost, Feasible: ok}, nil
			},
		}
		joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
		seed := mapping.ReplicateAllForkJoin(joinless, pl)
		seed.Blocks[0].Join = false
		res, err := anytime.SolveForkJoin(context.Background(), joinless, false, pl, spec,
			[]mapping.ForkJoinMapping{seed}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible || !res.Optimal {
			t.Fatalf("trial %d: want certified feasible optimum, got feasible=%v optimal=%v", trial, res.Feasible, res.Optimal)
		}
		if res.Gap != 0 {
			t.Errorf("trial %d: optimal result has gap %g", trial, res.Gap)
		}
		if !numeric.Eq(res.Cost.Period, want.Cost.Period) {
			t.Errorf("trial %d: period %g, exhaustive optimum %g", trial, res.Cost.Period, want.Cost.Period)
		}
		for _, b := range res.ForkJoin.Blocks {
			if b.Join {
				t.Fatalf("trial %d: a fork's result %v places a join", trial, res.ForkJoin)
			}
		}
		if got, err := mapping.EvalFork(f, pl, res.ForkJoin.Fork()); err != nil || got != res.Cost {
			t.Errorf("trial %d: reported cost %v, the fork's %v (%v)", trial, res.Cost, got, err)
		}
	}
}

// TestPortfolioHonoursBoundedSpec checks that results on bounded
// objectives respect the bound, and that an unreachable bound yields an
// infeasible verdict rather than a violating mapping.
func TestPortfolioHonoursBoundedSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fj := workflow.RandomForkJoin(rng, 6, 9)
	pl := platform.Random(rng, 6, 4)
	all := mapping.ReplicateAllForkJoin(fj, pl)
	base, err := mapping.EvalForkJoin(fj, pl, all)
	if err != nil {
		t.Fatal(err)
	}

	reachable := anytime.Spec{MinimizePeriod: false, PeriodBound: base.Period * 2, AllowDP: true}
	res, err := anytime.SolveForkJoin(context.Background(), fj, true, pl, reachable,
		[]mapping.ForkJoinMapping{all}, anytime.Config{Seed: 5, MaxIterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("reachable bound reported infeasible despite a feasible seed")
	}
	if numeric.Greater(res.Cost.Period, reachable.PeriodBound) {
		t.Errorf("result period %g violates bound %g", res.Cost.Period, reachable.PeriodBound)
	}

	unreachable := anytime.Spec{MinimizePeriod: false, PeriodBound: base.Period * 1e-9, AllowDP: true}
	res, err = anytime.SolveForkJoin(context.Background(), fj, true, pl, unreachable,
		[]mapping.ForkJoinMapping{all}, anytime.Config{Seed: 5, MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("unreachable bound produced a feasible result with period %g <= %g?", res.Cost.Period, unreachable.PeriodBound)
	}
}

// TestPortfolioReturnsIncumbentAtDeadline: a portfolio bounded by a
// short deadline still returns its incumbent instead of a context
// error.
func TestPortfolioReturnsIncumbentAtDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := workflow.RandomPipeline(rng, 16, 20)
	pl := platform.Random(rng, 14, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := anytime.SolvePipeline(ctx, p, pl, anytime.Spec{MinimizePeriod: true, AllowDP: true},
		[]mapping.PipelineMapping{mapping.ReplicateAllPipeline(p, pl)}, anytime.Config{Seed: 1})
	if err != nil {
		t.Fatalf("deadline-bounded portfolio errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("portfolio returned after %v, want prompt return at the deadline", elapsed)
	}
	if !res.Feasible {
		t.Fatal("no incumbent despite a valid seed")
	}
	if res.Gap < 0 {
		t.Errorf("negative gap %g", res.Gap)
	}
}

// TestPortfolioAnswersFromSeedsWhenDeadlineAlreadyExpired: a budget so
// tight that it expires before the search starts still yields the
// seeded incumbent — never a deadline error (the never-timeout
// contract of budgeted solving). A cancelled context, by contrast,
// aborts.
func TestPortfolioAnswersFromSeedsWhenDeadlineAlreadyExpired(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := workflow.RandomPipeline(rng, 10, 9)
	pl := platform.Random(rng, 8, 4)
	seeds := []mapping.PipelineMapping{mapping.ReplicateAllPipeline(p, pl)}
	spec := anytime.Spec{MinimizePeriod: true, AllowDP: true}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := anytime.SolvePipeline(expired, p, pl, spec, seeds, anytime.Config{Seed: 1})
	if err != nil {
		t.Fatalf("expired deadline errored instead of answering from seeds: %v", err)
	}
	if !res.Feasible || res.Gap < 0 {
		t.Fatalf("want the seed incumbent, got feasible=%v gap=%g", res.Feasible, res.Gap)
	}

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := anytime.SolvePipeline(cancelled, p, pl, spec, seeds, anytime.Config{Seed: 1}); err == nil {
		t.Fatal("cancelled context produced a result")
	}
}

// TestPortfolioImprovesOnPoorSeed: annealing must beat a deliberately
// bad seed (everything on the slowest processor) given iterations on a
// platform with one fast processor.
func TestPortfolioImprovesOnPoorSeed(t *testing.T) {
	p := workflow.NewPipeline(5, 5, 5, 5)
	pl := platform.New(10, 1)
	// Everything on the slow processor: period 20, latency 20.
	bad := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 3, mapping.Replicated, 1),
	}}
	spec := anytime.Spec{MinimizePeriod: true}
	res, err := anytime.SolvePipeline(context.Background(), p, pl, spec,
		[]mapping.PipelineMapping{bad}, anytime.Config{Seed: 3, MaxIterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if !numeric.Less(res.Cost.Period, 20) {
		t.Errorf("annealing never improved on the bad seed: period %g", res.Cost.Period)
	}
}
