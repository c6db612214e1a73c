package core

import (
	"context"
	"fmt"
	"sort"

	"repliflow/internal/workflow"
)

// CellKey identifies one dispatch cell of Table 1: the graph kind, the two
// homogeneity axes, the mapping model (with or without data-parallelism)
// and the objective. Every problem instance reduces to exactly one key,
// and every key resolves to exactly one registered solver.
type CellKey struct {
	Kind                workflow.Kind
	PlatformHomogeneous bool
	GraphHomogeneous    bool
	DataParallel        bool
	Objective           Objective
}

// String implements fmt.Stringer with a compact cell label.
func (k CellKey) String() string {
	plat, graph, model := "het-platform", "het-graph", "no-dp"
	if k.PlatformHomogeneous {
		plat = "hom-platform"
	}
	if k.GraphHomogeneous {
		graph = "hom-graph"
	}
	if k.DataParallel {
		model = "dp"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", k.Kind, plat, graph, model, k.Objective)
}

// SolverFunc solves one (validated, options-normalized) problem instance.
// Implementations must honour ctx: long searches return ctx.Err() promptly
// once the context is cancelled.
type SolverFunc func(ctx context.Context, pr Problem, opts Options) (Solution, error)

// PreparedSolve solves objective/bound variants of one prepared
// (workflow, platform, model) triple. The passed problem must differ from
// the prepared one only in Objective and Bound, and the result must be
// byte-identical to the owning entry's Solve on the same problem — the
// whole point is that batch engines may substitute it for Solve freely.
// A PreparedSolve is not safe for concurrent use; callers pool instances.
type PreparedSolve func(ctx context.Context, pr Problem) (Solution, error)

// PreparedCell is the product of a cell's Prepare capability: the solve
// closure plus the tunables of the underlying shared solver.
type PreparedCell struct {
	Solve PreparedSolve
	// SetParallelism retunes the worker count of subsequent solves to a
	// concrete, already-resolved value (engine pools donate idle slots
	// per solve). Nil when the cell's solver has no parallel path.
	// Results stay byte-identical at every setting, so retuning between
	// solves never changes an answer.
	SetParallelism func(workers int)
	// Front, when non-nil, returns the latencies of the cell's exact
	// Pareto front in order of increasing period, from one bi-criteria
	// pass: the PeriodUnderLatency solves at those latencies are the
	// front's points. The exact pipeline, fork, fork-join and
	// comm-pipeline cells have one (the pipeline DP keeps its pass for
	// the cell's later solves); it is nil on cells without a pass.
	Front func(ctx context.Context) ([]float64, error)
}

// SolverEntry is one registered solver: the algorithm family used for
// in-limit instances, whether that family is exact, the paper result
// backing the cell, and the solver itself. On NP-hard cells Method and
// Exact describe the exhaustive path; oversized instances fall back to
// polynomial heuristics at solve time (reported per-solution through
// Solution.Method and Solution.Exact).
type SolverEntry struct {
	Method Method
	Exact  bool
	Source string
	Solve  SolverFunc
	// Prepare, when non-nil, returns a prepared variant of Solve for
	// repeated solves of one instance that differ only in Objective and
	// Bound (Pareto sweeps, bi-criteria probes): shared preprocessing and
	// reusable scratch memory; repeated bounds are answered by the
	// engine's result cache, not by the prepared variant. It returns nil
	// when preparation does not apply under opts (e.g. the instance
	// exceeds the exhaustive limits, so solves take the heuristic path).
	// All cells of one graph kind share a single Prepare implementation,
	// so one prepared instance serves every objective of the family.
	Prepare func(pr Problem, opts Options) *PreparedCell
	// Anytime is the budget-bounded portfolio solver that replaces Solve
	// when Options.AnytimeBudget is positive. register fills it for every
	// MethodExhaustive cell whose kind spec has the Anytime capability;
	// it is nil on polynomial cells and on kinds without a portfolio (the
	// communication-aware variants), which ignore the budget.
	Anytime SolverFunc
}

// registry maps every Table 1 dispatch cell to its solver. It is populated
// at init time by the per-kind solver files and immutable after.
var registry = map[CellKey]SolverEntry{}

// register installs a solver entry, panicking on duplicates or nil solvers:
// both are programming errors caught by any test run.
func register(key CellKey, e SolverEntry) {
	if e.Solve == nil {
		panic(fmt.Sprintf("core: nil solver registered for cell %v", key))
	}
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("core: duplicate solver registration for cell %v", key))
	}
	if spec := kindSpecs[key.Kind]; spec != nil && e.Method == MethodExhaustive {
		e.Anytime = spec.Anytime
	}
	registry[key] = e
}

// CellKeyOf returns the dispatch key of a problem. The problem should be
// validated first; the key of an invalid problem is unspecified.
func CellKeyOf(pr Problem) CellKey {
	return CellKey{
		Kind:                pr.graphKind(),
		PlatformHomogeneous: pr.platformHomogeneous(),
		GraphHomogeneous:    pr.graphHomogeneous(),
		DataParallel:        pr.AllowDataParallel,
		Objective:           pr.Objective,
	}
}

// LookupSolver returns the registered solver entry for a dispatch cell.
func LookupSolver(key CellKey) (SolverEntry, bool) {
	e, ok := registry[key]
	return e, ok
}

// RegisteredCells returns every registered dispatch key in a deterministic
// order.
func RegisteredCells() []CellKey {
	keys := make([]CellKey, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// AllCellKeys enumerates every dispatch key Classify can emit: for each
// registered kind, the cross product of the homogeneity axes, the mapping
// models the kind supports (the data-parallel axis exists only for kinds
// with the capability) and the objectives. The registry-completeness test
// checks each resolves to a registered solver.
func AllCellKeys() []CellKey {
	var keys []CellKey
	for _, spec := range KindSpecs() {
		dps := []bool{false}
		if spec.DataParallel {
			dps = []bool{false, true}
		}
		for _, platHom := range []bool{false, true} {
			for _, graphHom := range []bool{false, true} {
				for _, dp := range dps {
					for _, obj := range []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency} {
						keys = append(keys, CellKey{spec.Kind, platHom, graphHom, dp, obj})
					}
				}
			}
		}
	}
	return keys
}

// classificationOf returns the Table 1 cell of a validated problem without
// re-validating it.
func classificationOf(pr Problem) Classification {
	return ClassifyCell(CellKeyOf(pr))
}

// ExactlySolvable reports whether Solve is guaranteed to return an exact
// solution (Solution.Exact == true) for the instance under opts: either
// the cell is polynomial, or it is NP-hard but within the kind's
// exhaustive search limits. The instance must be valid.
func ExactlySolvable(pr Problem, opts Options) bool {
	opts = opts.Normalized()
	if classificationOf(pr).Complexity.Polynomial() {
		return true
	}
	// A budget switches NP-hard cells with a portfolio to the anytime
	// path, whose result is certified but not guaranteed exact (the
	// budget may expire before the exact member finishes).
	if opts.AnytimeBudget > 0 && registry[CellKeyOf(pr)].Anytime != nil {
		return false
	}
	spec := specOf(pr)
	return spec != nil && spec.ExactlySolvable(pr, opts)
}

// SolveContext classifies the problem into its Table 1 cell and solves it
// with the registered solver, honouring ctx: exhaustive searches on NP-hard
// cells poll the context and return ctx.Err() promptly when cancelled. The
// zero Options value applies DefaultOptions.
func SolveContext(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	if err := pr.Validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.Normalized()
	key := CellKeyOf(pr)
	e, ok := registry[key]
	if !ok {
		// Unreachable when the registry is complete (guaranteed by test).
		return Solution{}, WithErrKind(ErrKindNoSolver,
			fmt.Errorf("core: no solver registered for cell %v", key))
	}
	if opts.AnytimeBudget > 0 && e.Anytime != nil {
		return e.Anytime(ctx, pr, opts)
	}
	return e.Solve(ctx, pr, opts)
}

// Solve classifies the problem into its Table 1 cell and solves it with
// the matching algorithm. The zero Options value applies DefaultOptions.
func Solve(pr Problem, opts Options) (Solution, error) {
	return SolveContext(context.Background(), pr, opts)
}
