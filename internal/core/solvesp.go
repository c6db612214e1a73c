package core

import (
	"context"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// This file registers the series-parallel DAG kind: the first client of
// the capability-based kind registry. The solver decomposes the SP graph
// with internal/spdecomp — graphs that collapse onto a legacy shape are
// delegated to the legacy Table 1 cells (so the decomposition is exact by
// construction, and legacy results are reused byte-for-byte); irreducible
// DAGs are solved in the block model, exhaustively within the fork
// limits, heuristically beyond them, and under a budget by a certified
// anytime local search.

func init() {
	registerKind(KindSpec{
		Kind:     workflow.KindSP,
		Name:     workflow.KindSP.String(),
		HasGraph: func(pr Problem) bool { return pr.SP != nil },
		ValidateGraph: func(pr Problem) error {
			return pr.SP.Validate()
		},
		GraphHomogeneous: func(pr Problem) bool { return pr.SP.IsHomogeneous() },
		// The SP block model has no replication or data-parallel mode
		// (DataParallel false), so AllowDataParallel is rejected and only
		// no-dp cells exist.
		Classify:           classifySP,
		ExactlySolvable:    spExactlySolvable,
		ParallelWorthwhile: spParallelWorthwhile,
		Anytime:            spSolver(spAnytime),
		SeedMix:            spSeedMix,
		AppendFingerprint:  appendSPFingerprint,
	})
}

// spDecomposition is every SP cell of Table 1: mapping a general
// series-parallel DAG subsumes the heterogeneous fork latency problem
// (Theorem 12), so every cell is NP-hard; the decomposer still solves
// reducible instances exactly through the polynomial legacy cells.
var spDecomposition = &tableCell{Classification{NPHard, "SP decomposition"}, spSolver(spKind.solve), prepareSP}

// classifySP is the Classify capability of the SP kind.
func classifySP(CellKey) *tableCell { return spDecomposition }

// spSeedMix feeds the step weights and the DAG shape into the portfolio
// RNG seed.
func spSeedMix(pr Problem, mix func(float64)) {
	for _, s := range pr.SP.Steps {
		mix(s.Weight)
		mix(float64(len(s.After)))
	}
}

// appendSPFingerprint encodes tag 'S', the step count, and per step the
// weight plus predecessor indices. Step names are deliberately excluded:
// renaming steps never changes the solution.
func appendSPFingerprint(pr Problem, b []byte) []byte {
	g := pr.SP
	b = append(b, 'S')
	b = fpInt(b, len(g.Steps))
	preds := g.Preds()
	for i, s := range g.Steps {
		b = fpFloat(b, s.Weight)
		b = fpInt(b, len(preds[i]))
		for _, u := range preds[i] {
			b = fpInt(b, u)
		}
	}
	return b
}

// spGoal projects the problem objective onto the block-model goal.
func spGoal(pr Problem) spdecomp.Goal {
	switch pr.Objective {
	case MinPeriod:
		return spdecomp.Goal{}
	case MinLatency:
		return spdecomp.Goal{MinimizeLatency: true}
	case LatencyUnderPeriod:
		return spdecomp.Goal{MinimizeLatency: true, PeriodCap: pr.Bound}
	default: // PeriodUnderLatency
		return spdecomp.Goal{LatencyCap: pr.Bound}
	}
}

// spSubProblem builds the legacy problem of an exact reduction,
// inheriting platform, objective and bound (the SP kind has no
// data-parallel model, so the sub-problem stays no-dp).
func spSubProblem(pr Problem, red spdecomp.Reduction) Problem {
	sub := Problem{Platform: pr.Platform, Objective: pr.Objective, Bound: pr.Bound}
	switch red.Kind {
	case workflow.KindPipeline:
		sub.Pipeline = red.Pipeline
	case workflow.KindFork:
		sub.Fork = red.Fork
	default:
		sub.ForkJoin = red.ForkJoin
	}
	return sub
}

// spKind describes the irreducible SP cells in the block model: the
// exhaustive block scan within the limits (it has the fork scan's
// set-partition shape, so it reuses the fork limits), the deterministic
// heuristic candidates beyond them.
var spKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return len(pr.SP.Steps) <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		solver, err := spdecomp.NewPrepared(*pr.SP, pr.Platform)
		return solver, err
	},
	exact: func(ctx context.Context, pp any, pr Problem) (Solution, bool, error) {
		blocks, cost, ok, err := pp.(*spdecomp.Prepared).Exhaustive(ctx, spGoal(pr))
		if !ok || err != nil {
			return Solution{}, false, err
		}
		return spMapped(blocks, cost), true, nil
	},
	// The candidates do not depend on the goal, so a cell computes them
	// once; a shared cell hands out copies.
	heuristic: func(pr Problem, shared bool) (hardSolve, error) {
		cands := spdecomp.Heuristics(*pr.SP, pr.Platform)
		return func(_ context.Context, pr Problem) (Solution, bool, error) {
			goal := spGoal(pr)
			cand, ok := spdecomp.Best(cands, goal)
			if !ok || !goal.Feasible(cand.Cost) {
				return Solution{}, false, nil
			}
			if shared {
				cand.Blocks = spdecomp.CloneBlocks(cand.Blocks)
			}
			return spMapped(cand.Blocks, cand.Cost), true, nil
		}, nil
	},
}

// spExactlySolvable: reducible instances are exactly solvable iff the
// reduced legacy instance is; irreducible ones iff the block enumeration
// is within the limits.
func spExactlySolvable(pr Problem, opts Options) bool {
	if red, ok := spdecomp.Reduce(*pr.SP); ok {
		return ExactlySolvable(spSubProblem(pr, red), opts)
	}
	return spKind.inLimits(pr, opts)
}

// spParallelWorthwhile: reducible instances inherit the reduced kind's
// crossover; irreducible ones use the fork thresholds (the block search
// has the same set-partition shape as the fork enumeration).
func spParallelWorthwhile(pr Problem) bool {
	if red, ok := spdecomp.Reduce(*pr.SP); ok {
		return parallelWorthwhile(spSubProblem(pr, red))
	}
	return len(pr.SP.Steps) >= parMinForkItems &&
		pr.Platform.Processors() >= parMinForkProcs
}

// spMapped wraps an irreducible block mapping and its cost.
func spMapped(blocks []mapping.SPBlock, c mapping.Cost) Solution {
	return Solution{SPMapping: &mapping.SPMapping{Reduced: workflow.KindSP, Blocks: blocks}, Cost: c}
}

// wrapSPSolution lifts a legacy sub-solution of an exact reduction into
// an SP solution: the embedded legacy mapping is byte-identical to
// solving the reduced instance directly, and Order records how canonical
// stage positions map back to SP step indices.
func wrapSPSolution(sol Solution, red spdecomp.Reduction, cl Classification) Solution {
	out := sol
	out.Classification = cl
	out.PipelineMapping, out.ForkMapping, out.ForkJoinMapping = nil, nil, nil
	if sol.Feasible {
		out.SPMapping = &mapping.SPMapping{
			Reduced:  red.Kind,
			Order:    append([]int(nil), red.Order...),
			Pipeline: sol.PipelineMapping,
			Fork:     sol.ForkMapping,
			ForkJoin: sol.ForkJoinMapping,
		}
	}
	return out
}

// spSolver returns a solver of the SP cells: a graph that reduces exactly
// is solved through its reduced legacy cell and wrapped back into SP
// form, an irreducible DAG by irreducible.
func spSolver(irreducible SolverFunc) SolverFunc {
	return func(ctx context.Context, pr Problem, opts Options) (Solution, error) {
		red, ok := spdecomp.Reduce(*pr.SP)
		if !ok {
			return irreducible(ctx, pr, opts)
		}
		sol, err := SolveContext(ctx, spSubProblem(pr, red), opts)
		if err != nil {
			return Solution{}, err
		}
		return wrapSPSolution(sol, red, classificationOf(pr)), nil
	}
}

// spAnytime is the anytime solver of irreducible DAGs; reducible ones
// take their reduced cell's (the legacy portfolio certifies its gap;
// polynomial sub-cells ignore the budget and return exact, gap 0).
// Within the exhaustive limits it first tries to certify the true
// optimum inside the budget — the SP analogue of the legacy portfolio's
// exact member. A budget that expires mid-enumeration falls through to
// the seeded local search of spdecomp.Budgeted, whose incumbent is
// certified against the spdecomp.Bounds lower bounds.
func spAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cl := classificationOf(pr)
	g := *pr.SP
	goal := spGoal(pr)
	if spKind.inLimits(pr, opts) {
		bctx, cancel := context.WithTimeout(ctx, opts.AnytimeBudget)
		sol, feasible, err := spKind.exactOnce(bctx, pr)
		cancel()
		if err == nil {
			sol, _ = stamp(sol, feasible, nil, MethodAnytime, true, cl)
			if feasible {
				sol.LowerBound = goal.Value(sol.Cost)
			}
			sol.Anytime, sol.Iterations = true, 1
			return sol, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Solution{}, cerr
		}
	}
	periodLB, latencyLB := spdecomp.Bounds(g, pr.Platform)
	blocks, cost, iters, feasible, err := spdecomp.Budgeted(
		ctx, g, pr.Platform, goal, uint64(anytimeSeedBase(pr)), opts.AnytimeBudget)
	if err != nil {
		return Solution{}, err
	}
	lb, val := periodLB, cost.Period
	if goal.MinimizeLatency {
		lb, val = latencyLB, cost.Latency
	}
	sol := Solution{
		Cost:   cost,
		Method: MethodAnytime, Feasible: feasible, Classification: cl,
		Anytime: true, LowerBound: lb, Iterations: uint64(iters),
	}
	if feasible {
		sol.SPMapping = &mapping.SPMapping{Reduced: workflow.KindSP, Blocks: blocks}
		sol.Exact = numeric.LessEq(val, lb)
		if !sol.Exact && lb > 0 {
			sol.Gap = val/lb - 1
		}
	}
	return sol, nil
}

// prepareSP is the Prepare capability of the SP cells. A graph that
// reduces exactly shares the reduced instance's prepared solver, when
// Prepare accepts it, and wraps each answer back into SP form —
// byte-identical to the cell's solver, since PreparedSolver.Solve is. An irreducible DAG prepares spKind's cell.
func prepareSP(pr Problem, opts Options) *PreparedCell {
	red, ok := spdecomp.Reduce(*pr.SP)
	if !ok {
		return spKind.prepare(pr, opts)
	}
	ps, ok := Prepare(spSubProblem(pr, red), opts)
	if !ok {
		return nil
	}
	solve := func(ctx context.Context, pr Problem) (Solution, error) {
		sol, err := ps.Solve(ctx, pr.Objective, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		return wrapSPSolution(sol, red, classificationOf(pr)), nil
	}
	// A resolved worker count reads the same in the Options.Parallelism
	// encoding ps.SetParallelism takes.
	return &PreparedCell{Solve: solve, SetParallelism: ps.SetParallelism}
}
