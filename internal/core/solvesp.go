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
		Preparable:         spPreparable,
		ParallelWorthwhile: spParallelWorthwhile,
		CandidatePeriods:   spCandidatePeriods,
		Anytime:            solveSPAnytime,
		SeedMix:            spSeedMix,
		AppendFingerprint:  appendSPFingerprint,
	})
	for _, platHom := range []bool{false, true} {
		for _, graphHom := range []bool{false, true} {
			for _, obj := range []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency} {
				register(CellKey{workflow.KindSP, platHom, graphHom, false, obj},
					SolverEntry{MethodExhaustive, true, "SP decomposition", solveSP, prepareSP, nil})
			}
		}
	}
}

// classifySP: mapping a general series-parallel DAG subsumes the
// heterogeneous fork latency problem (Theorem 12), so every cell is
// NP-hard; the decomposer still solves reducible instances exactly
// through the polynomial legacy cells.
func classifySP(CellKey) Classification {
	return Classification{NPHard, "SP decomposition"}
}

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

// spInLimits reports whether the irreducible block enumeration is within
// the exhaustive limits; SP reuses the fork limits (the block search has
// the same set-partition shape).
func spInLimits(pr Problem, opts Options) bool {
	return len(pr.SP.Steps) <= opts.MaxExhaustiveForkStages &&
		pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
}

// spExactlySolvable: reducible instances are exactly solvable iff the
// reduced legacy instance is; irreducible ones iff the block enumeration
// is within the limits.
func spExactlySolvable(pr Problem, opts Options) bool {
	if red, ok := spdecomp.Reduce(*pr.SP); ok {
		return ExactlySolvable(spSubProblem(pr, red), opts)
	}
	return spInLimits(pr, opts)
}

// spPreparable: reducible instances prepare iff the reduced legacy kind
// does (the prepared sub-solver is what gets shared); irreducible ones
// always prepare — the block enumeration's scratch and memo within the
// limits, the cached heuristic candidate set beyond them.
func spPreparable(pr Problem, opts Options) bool {
	if red, ok := spdecomp.Reduce(*pr.SP); ok {
		sub := spSubProblem(pr, red)
		spec := specOf(sub)
		return spec != nil && spec.Preparable != nil && spec.Preparable(sub, opts)
	}
	return true
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

// spCandidatePeriods enumerates achievable block loads (subset sums of
// the step weights when the graph is small, canonical-prefix sums plus
// single steps beyond that) expanded over the platform speeds. For
// reduced instances this is a superset of the legacy candidate sets, so
// the Pareto sweep stays exact on them; for large irreducible DAGs the
// coarser set only coarsens the front between points.
func spCandidatePeriods(pr Problem) []float64 {
	g := *pr.SP
	var sums []float64
	if n := len(g.Steps); n <= 12 {
		sums = append(sums, 0)
		for _, s := range g.Steps {
			for _, acc := range append([]float64(nil), sums...) {
				sums = append(sums, acc+s.Weight)
			}
			sums = numeric.DedupSorted(sums)
		}
	} else {
		topo, _ := g.Topo()
		acc := 0.0
		for _, v := range topo {
			sums = append(sums, g.Steps[v].Weight)
			acc += g.Steps[v].Weight
			sums = append(sums, acc)
		}
	}
	var weights []float64
	for _, s := range sums {
		if s > 0 {
			weights = append(weights, s)
		}
	}
	return periodsFromWeights(weights, pr.Platform)
}

// spSolution wraps an irreducible block mapping into a Solution.
func spSolution(blocks []mapping.SPBlock, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	return Solution{
		SPMapping: &mapping.SPMapping{Reduced: workflow.KindSP, Blocks: blocks},
		Cost:      c,
		Method:    method, Exact: exact, Feasible: true, Classification: cl,
	}
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

// solveSP is the registered solver of every SP cell.
func solveSP(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cl := classificationOf(pr)
	g := *pr.SP
	if red, ok := spdecomp.Reduce(g); ok {
		sol, err := SolveContext(ctx, spSubProblem(pr, red), opts)
		if err != nil {
			return Solution{}, err
		}
		return wrapSPSolution(sol, red, cl), nil
	}
	goal := spGoal(pr)
	if spInLimits(pr, opts) {
		pp, err := spdecomp.NewPrepared(g, pr.Platform)
		if err != nil {
			return Solution{}, err
		}
		pp.SetParallelism(searchParallelism(opts, pr))
		blocks, cost, ok, err := pp.Exhaustive(ctx, goal)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return spSolution(blocks, cost, MethodExhaustive, true, cl), nil
	}
	cand, ok := spdecomp.Best(spdecomp.Heuristics(g, pr.Platform), goal)
	if !ok || !goal.Feasible(cand.Cost) {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return spSolution(cand.Blocks, cand.Cost, MethodHeuristic, false, cl), nil
}

// solveSPAnytime is the Anytime capability of the SP kind. Exact
// reductions delegate the budget to the sub-problem's own solver (the
// legacy portfolio certifies its gap; polynomial sub-cells ignore the
// budget and return exact, gap 0). Irreducible DAGs run the seeded local
// search of spdecomp.Budgeted and certify the incumbent against the
// spdecomp.Bounds lower bounds.
func solveSPAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cl := classificationOf(pr)
	g := *pr.SP
	if red, ok := spdecomp.Reduce(g); ok {
		sol, err := SolveContext(ctx, spSubProblem(pr, red), opts)
		if err != nil {
			return Solution{}, err
		}
		return wrapSPSolution(sol, red, cl), nil
	}
	goal := spGoal(pr)
	// Within the exhaustive limits, try to certify the true optimum inside
	// the budget — the SP analogue of the legacy portfolio's exact member.
	// A budget that expires mid-enumeration falls through to the budgeted
	// local search below.
	if spInLimits(pr, opts) {
		bctx, cancel := anytimeContext(ctx, opts.AnytimeBudget)
		blocks, cost, feasible, err := spdecomp.Exhaustive(bctx, g, pr.Platform, goal)
		cancel()
		if err == nil {
			var sol Solution
			if feasible {
				sol = spSolution(blocks, cost, MethodAnytime, true, cl)
				sol.LowerBound = cost.Period
				if goal.MinimizeLatency {
					sol.LowerBound = cost.Latency
				}
			} else {
				sol = infeasible(MethodAnytime, true, cl)
			}
			sol.Anytime = true
			sol.Iterations = 1
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

// prepareSP is the Prepare capability of the SP cells: when the graph
// reduces exactly and the reduced cell advertises preparation, the
// sub-problem's prepared solver is shared across the objective family and
// each solve is wrapped back into SP form — byte-identical to solveSP.
// Irreducible DAGs share a spdecomp.Prepared: the cached decomposition
// state (topological order, evaluation scratch, certified bounds), the
// enumeration buffers and per-goal memo within the exhaustive limits,
// and the goal-independent heuristic candidate set beyond them.
func prepareSP(pr Problem, opts Options) *PreparedCell {
	red, ok := spdecomp.Reduce(*pr.SP)
	if !ok {
		return prepareSPIrreducible(pr, opts)
	}
	sub := spSubProblem(pr, red)
	e, ok := registry[CellKeyOf(sub)]
	if !ok || e.Prepare == nil {
		return nil
	}
	pc := e.Prepare(sub, opts)
	if pc == nil {
		return nil
	}
	solve := func(ctx context.Context, pr2 Problem) (Solution, error) {
		sub2 := sub
		sub2.Objective, sub2.Bound = pr2.Objective, pr2.Bound
		var (
			sol Solution
			err error
		)
		// Route through the shared prepared cell only for objectives whose
		// reduced cell registers the prepared capability — the same
		// per-objective gate Prepare applies to direct legacy problems.
		// Objectives answered by a polynomial cell (e.g. closed-form
		// min-latency) dispatch through SolveContext, like solveSP, so the
		// solution metadata stays byte-identical to the unprepared path.
		if e2, ok2 := registry[CellKeyOf(sub2)]; ok2 && e2.Prepare != nil {
			sol, err = pc.Solve(ctx, sub2)
		} else {
			sol, err = SolveContext(ctx, sub2, opts)
		}
		if err != nil {
			return Solution{}, err
		}
		return wrapSPSolution(sol, red, classificationOf(pr2)), nil
	}
	return &PreparedCell{Solve: solve, SetParallelism: pc.SetParallelism}
}

// prepareSPIrreducible shares one spdecomp.Prepared across the objective
// family of an irreducible SP instance, byte-identical to solveSP: the
// in-limit branch runs the (optionally partitioned) exhaustive block
// search with persistent scratch and a per-goal memo, the oversized
// branch reuses the goal-independent heuristic candidate set.
func prepareSPIrreducible(pr Problem, opts Options) *PreparedCell {
	pp, err := spdecomp.NewPrepared(*pr.SP, pr.Platform)
	if err != nil {
		return nil
	}
	pp.SetParallelism(searchParallelism(opts, pr))
	inLimits := spInLimits(pr, opts)
	solve := func(ctx context.Context, pr2 Problem) (Solution, error) {
		cl := classificationOf(pr2)
		goal := spGoal(pr2)
		if inLimits {
			blocks, cost, ok, err := pp.Exhaustive(ctx, goal)
			if err != nil {
				return Solution{}, err
			}
			if !ok {
				return infeasible(MethodExhaustive, true, cl), nil
			}
			return spSolution(blocks, cost, MethodExhaustive, true, cl), nil
		}
		cand, ok := pp.BestHeuristic(goal)
		if !ok || !goal.Feasible(cand.Cost) {
			return infeasible(MethodHeuristic, false, cl), nil
		}
		return spSolution(cand.Blocks, cand.Cost, MethodHeuristic, false, cl), nil
	}
	return &PreparedCell{Solve: solve, SetParallelism: pp.SetParallelism}
}
