package core

import (
	"context"
	"fmt"

	"repliflow/internal/workflow"
)

// CellKey identifies one dispatch cell of Table 1: the graph kind, the two
// homogeneity axes, the mapping model (with or without data-parallelism)
// and the objective. Every problem instance reduces to exactly one key,
// and every key to exactly one cell of its kind's Table 1.
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

// SolverEntry is the read-only view of one Table 1 cell's solver: the
// algorithm family used for in-limit instances, whether that family is
// exact, the paper result backing the cell, and the solver itself. On
// NP-hard cells Method and Exact describe the exhaustive path; oversized
// instances fall back to polynomial heuristics at solve time (reported
// per-solution through Solution.Method and Solution.Exact).
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
	// when Options.AnytimeBudget is positive: the kind spec's Anytime on
	// NP-hard cells, nil on polynomial cells and on kinds without a
	// portfolio (the communication-aware variants), which ignore the
	// budget.
	Anytime SolverFunc
}

// tableCell is one cell of Table 1: its classification and the solver
// behind it. Each kind's Classify tree returns a pointer to one of the
// kind's package-level cells, so the table is written once; everything
// else a SolverEntry reports derives from the cell and its kind.
type tableCell struct {
	Classification
	solve SolverFunc
	// prepare is the cell's SolverEntry.Prepare (nil when it has none).
	prepare func(pr Problem, opts Options) *PreparedCell
}

// npHardCell is an NP-hard cell of Table 1, solved by the kind's hard path.
func npHardCell(source string, k *hardKind) *tableCell {
	return &tableCell{Classification{NPHard, source}, k.solve, k.prepare}
}

// polyCell is a polynomial cell of Table 1. run is its algorithm: the
// mapping and cost of pr's optimum, and whether any mapping meets pr's
// bound; the cell stamps its method and classification on the answer.
func polyCell(c Complexity, source string, run func(pr Problem) (Solution, bool, error)) *tableCell {
	cl := Classification{c, source}
	return &tableCell{Classification: cl, solve: func(_ context.Context, pr Problem, _ Options) (Solution, error) {
		sol, ok, err := run(pr)
		return stamp(sol, ok, err, c.method(), true, cl)
	}}
}

// feasible adapts an unbounded algorithm's result to polyCell's run: with
// no bound to meet, its optimum is always feasible.
func feasible[R any](r R, err error) (R, bool, error) { return r, true, err }

// CellKeyOf returns the dispatch key of a problem. The problem should be
// validated first; the key of an invalid problem is unspecified.
func CellKeyOf(pr Problem) CellKey {
	return keyOf(specOf(pr), pr)
}

// keyOf is CellKeyOf for the spec of pr's kind, nil when no kind claims pr.
func keyOf(spec *KindSpec, pr Problem) CellKey {
	k := CellKey{Kind: workflow.Kind(-1), DataParallel: pr.AllowDataParallel, Objective: pr.Objective}
	if spec == nil {
		k.PlatformHomogeneous = pr.Platform.IsHomogeneous()
		return k
	}
	k.Kind, k.GraphHomogeneous = spec.Kind, spec.GraphHomogeneous(pr)
	if spec.PlatformHomogeneous != nil {
		k.PlatformHomogeneous = spec.PlatformHomogeneous(pr)
	} else {
		k.PlatformHomogeneous = pr.Platform.IsHomogeneous()
	}
	return k
}

// cellOf returns the spec of a validated problem's kind and the problem's
// Table 1 cell.
func cellOf(pr Problem) (*KindSpec, *tableCell) {
	spec := specOf(pr)
	return spec, spec.Classify(keyOf(spec, pr))
}

// LookupSolver returns the solver entry of a dispatch cell; ok is false
// for keys AllCellKeys does not enumerate.
func LookupSolver(key CellKey) (SolverEntry, bool) {
	spec := specFor(key.Kind)
	if spec == nil || key.DataParallel && !spec.DataParallel ||
		key.Objective < MinPeriod || key.Objective > PeriodUnderLatency {
		return SolverEntry{}, false
	}
	c := spec.Classify(key)
	e := SolverEntry{Method: c.Complexity.method(), Exact: true, Source: c.Source, Solve: c.solve, Prepare: c.prepare}
	if !c.Complexity.Polynomial() {
		e.Anytime = spec.Anytime
	}
	return e, true
}

// AllCellKeys enumerates every dispatch key Classify can emit: for each
// registered kind, the cross product of the homogeneity axes, the mapping
// models the kind supports (the data-parallel axis exists only for kinds
// with the capability) and the objectives.
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
	_, c := cellOf(pr)
	return c.Classification
}

// ExactlySolvable reports whether Solve is guaranteed to return an exact
// solution (Solution.Exact == true) for the instance under opts: either
// the cell is polynomial, or it is NP-hard but within the kind's
// exhaustive search limits. The instance must be valid.
func ExactlySolvable(pr Problem, opts Options) bool {
	spec := specOf(pr)
	if spec == nil {
		return false
	}
	if spec.Classify(keyOf(spec, pr)).Complexity.Polynomial() {
		return true
	}
	// A budget switches NP-hard cells with a portfolio to the anytime
	// path, whose result is certified but not guaranteed exact (the
	// budget may expire before the exact member finishes).
	opts = opts.Normalized()
	if opts.AnytimeBudget > 0 && spec.Anytime != nil {
		return false
	}
	return spec.ExactlySolvable(pr, opts)
}

// SolveContext classifies the problem into its Table 1 cell and solves it
// with the cell's solver, honouring ctx: exhaustive searches on NP-hard
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
	spec, c := cellOf(pr)
	if opts.AnytimeBudget > 0 && spec.Anytime != nil && !c.Complexity.Polynomial() {
		return spec.Anytime(ctx, pr, opts)
	}
	return c.solve(ctx, pr, opts)
}

// Solve classifies the problem into its Table 1 cell and solves it with
// the matching algorithm. The zero Options value applies DefaultOptions.
func Solve(pr Problem, opts Options) (Solution, error) {
	return SolveContext(context.Background(), pr, opts)
}
