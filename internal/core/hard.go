package core

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/fullmodel"
	"repliflow/internal/mapping"
)

// This file holds the one path of every NP-hard kind: a kind describes
// its hard cells in a hardKind, and one body serves the cells' one-shot
// Solve, their Prepare and the anytime portfolio's exact member.
// A one-shot solve is a prepared solve used once.

// hardSolve answers one objective of a built cell with the mapping and
// its cost only, and whether any mapping meets the bound; stamp does the rest.
type hardSolve func(ctx context.Context, pr Problem) (Solution, bool, error)

// hardKind describes the NP-hard cells of one kind.
type hardKind struct {
	// inLimits reports whether exact search applies to the instance. It
	// is the kind's only reader of the exhaustive caps in Options, and its
	// KindSpec.ExactlySolvable.
	inLimits func(pr Problem, opts Options) bool
	// newExact builds the prepared exact solver of an in-limit instance,
	// searching serially, and exact answers one objective on it. The
	// solver is a pointer behind an any, so a one-shot solve allocates
	// nothing for it; one with a parallel search is a parallelSolver.
	// After an error the solver is not used.
	newExact func(pr Problem) (any, error)
	exact    func(ctx context.Context, solver any, pr Problem) (Solution, bool, error)
	// front is the PreparedCell.Front of an exact solver; nil when the
	// kind has no front pass.
	front func(ctx context.Context, solver any) ([]float64, error)
	// heuristic builds the solve of an oversized instance. A shared solve
	// serves a whole objective family and hands out mappings the caller
	// may keep; kinds whose candidates depend on the objective return nil
	// there, and Prepare refuses the instance.
	heuristic func(pr Problem, shared bool) (hardSolve, error)
	// portfolio runs the anytime portfolio on the kind's heuristic seeds
	// under cfg. Nil when the kind has no portfolio.
	portfolio func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error)
	// solution turns a feasible answer of exact, heuristic or portfolio,
	// all in the kind's own terms (the portfolio's), into pr's Solution.
	// Nil when the two agree.
	solution func(pr Problem, sol Solution) Solution
}

// answer is pr's Solution of an answer sol of the kind's search, and ok
// whether it is feasible.
func (k *hardKind) answer(pr Problem, sol Solution, ok bool) Solution {
	if ok && k.solution != nil {
		return k.solution(pr, sol)
	}
	return sol
}

// latencies is the front of an exact solver with a front pass: the
// latencies of the points the pass returns, by increasing period.
func latencies[C mapping.Cost | fullmodel.Cost](front []C, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	lats := make([]float64, len(front))
	for k, c := range front {
		lats[k] = mapping.Cost(c).Latency
	}
	return lats, nil
}

// parallelSolver is an exact solver with a parallel search path.
type parallelSolver interface{ SetParallelism(workers int) }

// hardCell is the hard path of one instance: the exact solver inside
// the limits, the heuristic solve past them.
type hardCell struct {
	kind   *hardKind
	solver any
	heur   hardSolve
}

// cell builds the hard path of pr. shared reports whether the cell will
// serve more than one solve.
func (k *hardKind) cell(pr Problem, opts Options, shared bool) (hardCell, error) {
	if k.inLimits(pr, opts) {
		solver, err := k.newExact(pr)
		if p, ok := solver.(parallelSolver); ok && err == nil {
			p.SetParallelism(searchParallelism(opts, pr))
		}
		return hardCell{kind: k, solver: solver}, err
	}
	heur, err := k.heuristic(pr, shared)
	return hardCell{kind: k, heur: heur}, err
}

// run solves one objective on the cell.
func (c hardCell) run(ctx context.Context, pr Problem) (Solution, error) {
	if c.solver == nil {
		sol, ok, err := c.heur(ctx, pr)
		return stamp(c.kind.answer(pr, sol, ok), ok, err, MethodHeuristic, false, classificationOf(pr))
	}
	sol, ok, err := c.kind.exact(ctx, c.solver, pr)
	return stamp(c.kind.answer(pr, sol, ok), ok, err, MethodExhaustive, true, classificationOf(pr))
}

// stamp completes a cell's answer with the method and exactness of the
// path that produced it and the cell's classification; ok false makes it
// the infeasible verdict.
func stamp(sol Solution, ok bool, err error, method Method, exact bool, cl Classification) (Solution, error) {
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(method, exact, cl), nil
	}
	sol.Method, sol.Exact, sol.Feasible, sol.Classification = method, exact, true, cl
	return sol, nil
}

// infeasible is the answer when no mapping meets the bound.
func infeasible(method Method, exact bool, cl Classification) Solution {
	return Solution{Method: method, Exact: exact, Feasible: false, Classification: cl}
}

// solve is the solver of the kind's hard cells: the prepared path, built
// for this one solve.
func (k *hardKind) solve(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	c, err := k.cell(pr, opts, false)
	if err != nil {
		return Solution{}, err
	}
	return c.run(ctx, pr)
}

// prepare is the Prepare capability of the kind's hard cells:
// one cell shared by every objective of the family, byte-identical to
// solve. It returns nil when the cell has nothing to share.
func (k *hardKind) prepare(pr Problem, opts Options) *PreparedCell {
	c, err := k.cell(pr, opts, true)
	if err != nil || c.solver == nil && c.heur == nil {
		return nil
	}
	pc := &PreparedCell{Solve: c.run}
	if p, ok := c.solver.(parallelSolver); ok {
		pc.SetParallelism = p.SetParallelism
	}
	if c.solver != nil && k.front != nil {
		pc.Front = func(ctx context.Context) ([]float64, error) { return k.front(ctx, c.solver) }
	}
	return pc
}

// exactOnce runs a fresh exact solver once, serially: the anytime
// portfolio already saturates the cores with concurrent members.
func (k *hardKind) exactOnce(ctx context.Context, pr Problem) (Solution, bool, error) {
	solver, err := k.newExact(pr)
	if err != nil {
		return Solution{}, false, err
	}
	return k.exact(ctx, solver, pr)
}

// exactSolver is the objective surface shared by the prepared exhaustive
// solvers of the pipeline, fork and fork-join kinds.
type exactSolver[R any] interface {
	Period(ctx context.Context) (R, bool, error)
	Latency(ctx context.Context) (R, bool, error)
	LatencyUnderPeriod(ctx context.Context, maxPeriod float64) (R, bool, error)
	PeriodUnderLatency(ctx context.Context, maxLatency float64) (R, bool, error)
}

// preparedDispatch solves pr's objective on a shared prepared solver:
// same dispatch and results as a fresh one, none of the per-solve setup.
func preparedDispatch[R any](ctx context.Context, s exactSolver[R], pr Problem) (R, bool, error) {
	switch pr.Objective {
	case MinPeriod:
		return s.Period(ctx)
	case MinLatency:
		return s.Latency(ctx)
	case LatencyUnderPeriod:
		return s.LatencyUnderPeriod(ctx, pr.Bound)
	default:
		return s.PeriodUnderLatency(ctx, pr.Bound)
	}
}

// exhaustiveSolve answers pr on a prepared internal/exhaustive solver;
// mapped wraps a feasible result's mapping and cost.
func exhaustiveSolve[R any](ctx context.Context, s exactSolver[R], pr Problem, mapped func(R) Solution) (Solution, bool, error) {
	res, ok, err := preparedDispatch(ctx, s, pr)
	if !ok || err != nil {
		return Solution{}, false, err
	}
	return mapped(res), true, nil
}

// perObjective is the heuristic path of a kind whose candidates depend on
// the objective: each solve draws them afresh and answers with the best
// one meeting the bound, so a shared cell has nothing to reuse.
func perObjective[M any](candidates func(Problem) ([]M, []mapping.Cost), mapped func(*M, mapping.Cost) Solution) func(Problem, bool) (hardSolve, error) {
	solve := func(_ context.Context, pr Problem) (Solution, bool, error) {
		maps, costs := candidates(pr)
		idx, ok := pickBestIndex(costs, pr)
		if !ok {
			return Solution{}, false, nil
		}
		return mapped(&maps[idx], costs[idx]), true, nil
	}
	return func(_ Problem, shared bool) (hardSolve, error) {
		if shared {
			return nil, nil
		}
		return solve, nil
	}
}

// commHeuristic is the heuristic path of the communication-aware kinds:
// their candidates do not depend on the objective, so a cell evaluates
// them once, and each solve answers with the best one meeting the bound,
// copied by clone when the cell is shared.
func commHeuristic[M any](cands []M, eval func(M) (fullmodel.Cost, error), shared bool, clone func(M) M, mapped func(M, mapping.Cost) Solution) (hardSolve, error) {
	costs := make([]mapping.Cost, len(cands))
	for i, m := range cands {
		c, err := eval(m)
		if err != nil {
			return nil, err
		}
		costs[i] = commCost(c)
	}
	return func(_ context.Context, pr Problem) (Solution, bool, error) {
		idx, ok := pickBestIndex(costs, pr)
		if !ok {
			return Solution{}, false, nil
		}
		m := cands[idx]
		if shared {
			m = clone(m)
		}
		return mapped(m, costs[idx]), true, nil
	}, nil
}
