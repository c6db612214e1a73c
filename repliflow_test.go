package repliflow_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repliflow"
	"repliflow/internal/core"
	"repliflow/internal/numeric"
)

func TestPublicAPIQuickstart(t *testing.T) {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	sol, err := repliflow.Solve(repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
		Objective:         repliflow.MinLatency,
	}, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || !sol.Exact {
		t.Fatalf("solution not exact/feasible: %v", sol)
	}
	if !numeric.Eq(sol.Cost.Latency, 17) {
		t.Fatalf("latency = %v, want 17", sol.Cost.Latency)
	}
}

func TestPublicAPIClassify(t *testing.T) {
	pipe := repliflow.HomogeneousPipeline(4, 2)
	plat := repliflow.NewPlatform(1, 2, 3)
	cl, err := repliflow.Classify(repliflow.Problem{
		Pipeline:  &pipe,
		Platform:  plat,
		Objective: repliflow.MinPeriod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Complexity != repliflow.PolyBinarySearchDP || cl.Source != "Theorem 7" {
		t.Fatalf("classification = %+v", cl)
	}
}

func TestPublicAPIManualMappingEvaluation(t *testing.T) {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.NewPlatform(2, 2, 1, 1)
	m := repliflow.PipelineMapping{Intervals: []repliflow.PipelineInterval{
		repliflow.NewPipelineInterval(0, 0, repliflow.DataParallel, 0, 1),
		repliflow.NewPipelineInterval(1, 3, repliflow.Replicated, 2, 3),
	}}
	c, err := repliflow.EvalPipeline(pipe, plat, m)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(c.Period, 5) || !numeric.Eq(c.Latency, 13.5) {
		t.Fatalf("cost = %v, want period=5 latency=13.5", c)
	}
}

func TestPublicAPIForkAndForkJoin(t *testing.T) {
	f := repliflow.HomogeneousFork(2, 3, 1)
	plat := repliflow.HomogeneousPlatform(3, 1)
	sol, err := repliflow.Solve(repliflow.Problem{
		Fork:      &f,
		Platform:  plat,
		Objective: repliflow.MinPeriod,
	}, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(sol.Cost.Period, 5.0/3) {
		t.Fatalf("fork period = %v, want 5/3", sol.Cost.Period)
	}

	fj := repliflow.NewForkJoin(1, 2, 3, 3)
	mfj := repliflow.ForkJoinMapping{Blocks: []repliflow.ForkJoinBlock{
		repliflow.NewForkJoinBlock(true, true, []int{0}, repliflow.Replicated, 0),
		repliflow.NewForkJoinBlock(false, false, []int{1}, repliflow.Replicated, 1, 2),
	}}
	c, err := repliflow.EvalForkJoin(fj, plat, mfj)
	if err != nil {
		t.Fatal(err)
	}
	// Block 1 = {S0,S1,Sjoin} weight 6 on one unit processor; block 2 =
	// {S2} weight 3 replicated on two unit processors.
	// rootDone = 1, leafDone = max(1+3, 1+3) = 4, latency = 4 + 2 = 6.
	if !numeric.Eq(c.Latency, 6) {
		t.Fatalf("fork-join latency = %v, want 6", c.Latency)
	}
	if !numeric.Eq(c.Period, 6) { // block 1 period 6/(1*1)
		t.Fatalf("fork-join period = %v, want 6", c.Period)
	}
}

func TestPublicAPIEngine(t *testing.T) {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	pr := repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
		Objective:         repliflow.MinLatency,
	}

	// SolveContext matches Solve.
	want, err := repliflow.Solve(pr, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := repliflow.SolveContext(context.Background(), pr, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("SolveContext diverges from Solve")
	}

	// A cancelled context is honoured.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repliflow.SolveContext(ctx, pr, repliflow.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SolveContext returned %v", err)
	}

	// SolveBatch aligns solutions with inputs.
	perPr := pr
	perPr.Objective = repliflow.MinPeriod
	sols, err := repliflow.SolveBatch(context.Background(), []repliflow.Problem{pr, perPr}, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 || sols[0].Cost.Latency != 17 || sols[1].Cost.Period != 8 {
		t.Errorf("batch solutions wrong: %v", sols)
	}

	// A reusable engine caches across calls.
	eng := repliflow.NewEngine(2)
	if _, err := eng.SolveBatch(context.Background(), []repliflow.Problem{pr, pr}, repliflow.Options{}); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.CacheStats(); hits == 0 {
		t.Error("engine cache never hit on a duplicate batch")
	}

	// ParetoFrontContext returns the same front as ParetoFront.
	f1, err := repliflow.ParetoFront(pr, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := repliflow.ParetoFrontContext(context.Background(), pr, repliflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("ParetoFrontContext diverges from ParetoFront")
	}

	// Table 1 is visible through the public API.
	cl, err := repliflow.Classify(pr)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := repliflow.LookupSolver(core.CellKeyOf(pr))
	if !ok {
		t.Fatal("no solver for the quickstart cell")
	}
	if entry.Source != cl.Source {
		t.Errorf("solver source %q, classification source %q", entry.Source, cl.Source)
	}
}
