// Package anytime is the deadline-bounded portfolio solver for the
// NP-hard cells of Table 1 (heterogeneous pipelines with period-type
// objectives, data-parallel heterogeneous platforms, heterogeneous
// forks and fork-joins — Theorems 5, 9, 12, 13, 15), where the exact
// solvers of internal/exhaustive are exponential and the polynomial
// heuristics carry no quality statement.
//
// A portfolio run races three kinds of members against a deadline,
// sharing one best-so-far incumbent under a mutex:
//
//   - the caller's heuristic seed mappings (evaluated up front, so the
//     portfolio can never return a worse objective than its best seed);
//   - seeded simulated-annealing workers mutating mappings through
//     kind-specific neighbourhoods (interval merges/splits, leaf and
//     processor moves, mode toggles), each with its own deterministic
//     RNG stream. A fork anneals as a fork-join without a join
//     (SolveForkJoin with join false), costed as a fork;
//   - an optional exact member (Config.Exact, typically a closure over
//     internal/exhaustive) whose completion certifies the optimum and
//     stops the run early.
//
// Every result carries a certified optimality statement: the cheap
// lower bounds of this package (sum-of-work for the period,
// critical-path for the latency — see PeriodLB/LatencyLB, PipelineLB
// and ForkJoinLB) bound the optimum from below, so Result.Gap =
// objective/lower-bound − 1 is a true upper bound on the distance to
// the optimum, and Gap == 0 proves optimality. The same bound
// primitives drive branch pruning inside internal/exhaustive; this
// package is the single implementation.
//
// The package sits beside internal/heuristics in the layering: it
// depends only on the graph/platform/mapping layers, and internal/core
// wires it into dispatch (the anytime solver of every NP-hard cell,
// engaged when Options.AnytimeBudget is set).
package anytime
