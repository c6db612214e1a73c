package repliflow_test

import (
	"context"
	"fmt"
	"time"

	"repliflow"
)

// ExampleSolve reproduces the Section 2 optimum: minimum latency of the
// pipeline (14, 4, 2, 4) on three unit-speed processors with
// data-parallelism.
func ExampleSolve() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	sol, err := repliflow.Solve(repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
		Objective:         repliflow.MinLatency,
	}, repliflow.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("period=%g latency=%g\n", sol.Cost.Period, sol.Cost.Latency)
	fmt.Println(sol.PipelineMapping)
	// Output:
	// period=10 latency=17
	// [S1 data-parallel on P1,P2] [S2..S4 replicated on P3]
}

// ExampleClassify shows the Table 1 classification of an instance.
func ExampleClassify() {
	pipe := repliflow.HomogeneousPipeline(4, 2)
	plat := repliflow.NewPlatform(1, 2, 3)
	cl, err := repliflow.Classify(repliflow.Problem{
		Pipeline:  &pipe,
		Platform:  plat,
		Objective: repliflow.MinPeriod,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s by %s\n", cl.Complexity, cl.Source)
	// Output:
	// Poly (*) by Theorem 7
}

// ExampleEvalPipeline evaluates a hand-built mapping under the Section 3.4
// cost model — here the paper's heterogeneous-platform mapping with
// period 5 and latency 13.5.
func ExampleEvalPipeline() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.NewPlatform(2, 2, 1, 1)
	m := repliflow.PipelineMapping{Intervals: []repliflow.PipelineInterval{
		repliflow.NewPipelineInterval(0, 0, repliflow.DataParallel, 0, 1),
		repliflow.NewPipelineInterval(1, 3, repliflow.Replicated, 2, 3),
	}}
	c, err := repliflow.EvalPipeline(pipe, plat, m)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(c)
	// Output:
	// period=5 latency=13.5
}

// ExampleSolveBatch solves several instances concurrently. Duplicate
// instances (here the first and last) are detected through the engine's
// fingerprint cache and solved once; solutions align with the input by
// index.
func ExampleSolveBatch() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	base := repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
	}
	minLatency, minPeriod := base, base
	minLatency.Objective = repliflow.MinLatency
	minPeriod.Objective = repliflow.MinPeriod

	sols, err := repliflow.SolveBatch(context.Background(),
		[]repliflow.Problem{minLatency, minPeriod, minLatency}, repliflow.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, sol := range sols {
		fmt.Println(sol.Cost)
	}
	// Output:
	// period=10 latency=17
	// period=8 latency=24
	// period=10 latency=17
}

// ExampleLookupSolver inspects Table 1: the dispatch cell of
// an instance resolves to the algorithm, exactness and paper result that
// Solve would use on it.
func ExampleLookupSolver() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	key := repliflow.CellKeyOf(repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
		Objective:         repliflow.MinLatency,
	})
	entry, ok := repliflow.LookupSolver(key)
	if !ok {
		fmt.Println("no solver for", key)
		return
	}
	fmt.Println(key)
	fmt.Printf("%v, exact=%v, by %s\n", entry.Method, entry.Exact, entry.Source)
	// Output:
	// pipeline/hom-platform/het-graph/dp/min-latency
	// dynamic-programming, exact=true, by Theorem 3
}

// ExampleParetoFront sweeps the latency/throughput trade-off of the
// Section 2 instance.
func ExampleParetoFront() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.HomogeneousPlatform(3, 1)
	front, err := repliflow.ParetoFront(repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
	}, repliflow.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, sol := range front {
		fmt.Printf("period=%g latency=%g\n", sol.Cost.Period, sol.Cost.Latency)
	}
	// Output:
	// period=8 latency=24
	// period=10 latency=17
}

// ExampleSolve_anytimeBudget solves an NP-hard instance (heterogeneous
// platform, data-parallelism: Theorem 5 cell, 18 stages on 16
// processors) under a 50ms anytime budget: the portfolio returns its
// best incumbent with a certified optimality gap instead of searching
// exhaustively.
func ExampleSolve_anytimeBudget() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4, 7, 3, 9, 5, 6, 8, 2, 11, 3, 5, 9, 4, 6, 7)
	plat := repliflow.NewPlatform(2, 2, 1, 1, 3, 1, 2, 1, 1, 2, 3, 1, 2, 3, 1, 2)
	sol, err := repliflow.Solve(repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
		Objective:         repliflow.MinPeriod,
	}, repliflow.Options{AnytimeBudget: 50 * time.Millisecond})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The exact gap value depends on the budget race; the certification
	// invariants do not.
	fmt.Println("anytime:", sol.Anytime)
	fmt.Println("feasible:", sol.Feasible)
	fmt.Println("gap is finite and non-negative:", sol.Gap >= 0 && sol.Gap < 1e12)
	fmt.Println("lower bound positive:", sol.LowerBound > 0)
	// Output:
	// anytime: true
	// feasible: true
	// gap is finite and non-negative: true
	// lower bound positive: true
}

// ExamplePrepare shows the prepared-solver layer: repeated solves of one
// NP-hard instance that differ only in the objective's bound share
// preprocessing and DP scratch, returning exactly what SolveContext
// would.
func ExamplePrepare() {
	pipe := repliflow.NewPipeline(14, 4, 2, 4)
	plat := repliflow.NewPlatform(3, 2, 1) // heterogeneous + DP: NP-hard (Theorem 5)
	pr := repliflow.Problem{
		Pipeline:          &pipe,
		Platform:          plat,
		AllowDataParallel: true,
	}
	ps, ok := repliflow.Prepare(pr, repliflow.Options{})
	if !ok {
		fmt.Println("no prepared capability for this instance")
		return
	}
	ctx := context.Background()
	for _, bound := range []float64{3, 6, 9} {
		sol, err := ps.Solve(ctx, repliflow.LatencyUnderPeriod, bound)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("period <= %g: feasible=%v latency=%g\n", bound, sol.Feasible, sol.Cost.Latency)
	}
	// Output:
	// period <= 3: feasible=false latency=0
	// period <= 6: feasible=true latency=8
	// period <= 9: feasible=true latency=8
}
