package core

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/exhaustive"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/workflow"
)

// pipeSolution wraps a pipeline mapping into a Solution.
func pipeSolution(m mapping.PipelineMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		PipelineMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

func infeasible(method Method, exact bool, cl Classification) Solution {
	return Solution{Method: method, Exact: exact, Feasible: false, Classification: cl}
}

// registerPipelineSolvers populates the registry with the pipeline column
// of Table 1. Cells whose algorithm ignores an axis (e.g. Theorem 1 works
// for any graph homogeneity) are registered once per concrete key so the
// registry stays total over the cross product.
func init() {
	kind := workflow.KindPipeline
	bools := []bool{false, true}

	registerKind(KindSpec{
		Kind:             kind,
		Name:             kind.String(),
		HasGraph:         func(pr Problem) bool { return pr.Pipeline != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Pipeline.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Pipeline.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  pipeKind.inLimits,
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.Pipeline.Stages()<<pr.Platform.Processors() >= parMinPipelineStates
		},
		Anytime: pipeKind.solveAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			for _, w := range pr.Pipeline.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			return fpFloats(append(b, 'P'), pr.Pipeline.Weights)
		},
	})

	// Homogeneous platforms: every cell is polynomial (Theorems 1-4,
	// Corollary 1).
	for _, gh := range bools {
		for _, dp := range bools {
			register(CellKey{kind, true, gh, dp, MinPeriod},
				SolverEntry{MethodClosedForm, true, "Theorem 1", solvePipeHomPeriod, nil, nil})
		}
		register(CellKey{kind, true, gh, false, MinLatency},
			SolverEntry{MethodClosedForm, true, "Theorem 2", solvePipeHomLatencyNoDP, nil, nil})
		register(CellKey{kind, true, gh, false, LatencyUnderPeriod},
			SolverEntry{MethodClosedForm, true, "Corollary 1", solvePipeHomBiCriteriaNoDP, nil, nil})
		register(CellKey{kind, true, gh, false, PeriodUnderLatency},
			SolverEntry{MethodClosedForm, true, "Corollary 1", solvePipeHomBiCriteriaNoDP, nil, nil})
		register(CellKey{kind, true, gh, true, MinLatency},
			SolverEntry{MethodDP, true, "Theorem 3", solvePipeHomLatencyDP, nil, nil})
		register(CellKey{kind, true, gh, true, LatencyUnderPeriod},
			SolverEntry{MethodDP, true, "Theorem 4", solvePipeHomLatencyUnderPeriodDP, nil, nil})
		register(CellKey{kind, true, gh, true, PeriodUnderLatency},
			SolverEntry{MethodDP, true, "Theorem 4", solvePipeHomPeriodUnderLatencyDP, nil, nil})
	}

	// Heterogeneous platforms without data-parallelism: latency is always
	// polynomial (Theorem 6); period-type objectives are polynomial for
	// homogeneous pipelines (Theorems 7-8) and NP-hard otherwise
	// (Theorem 9).
	for _, gh := range bools {
		register(CellKey{kind, false, gh, false, MinLatency},
			SolverEntry{MethodClosedForm, true, "Theorem 6", solvePipeHetLatencyNoDP, nil, nil})
	}
	register(CellKey{kind, false, true, false, MinPeriod},
		SolverEntry{MethodBinarySearchDP, true, "Theorem 7", solvePipeHetHomPeriodNoDP, nil, nil})
	register(CellKey{kind, false, true, false, LatencyUnderPeriod},
		SolverEntry{MethodBinarySearchDP, true, "Theorem 8", solvePipeHetHomLatencyUnderPeriodNoDP, nil, nil})
	register(CellKey{kind, false, true, false, PeriodUnderLatency},
		SolverEntry{MethodBinarySearchDP, true, "Theorem 8", solvePipeHetHomPeriodUnderLatencyNoDP, nil, nil})
	for _, obj := range []Objective{MinPeriod, LatencyUnderPeriod, PeriodUnderLatency} {
		register(CellKey{kind, false, false, false, obj},
			SolverEntry{MethodExhaustive, true, "Theorem 9", pipeKind.solve, pipeKind.prepare, nil})
	}

	// Data-parallelism on heterogeneous platforms is NP-hard across the
	// board (Theorem 5 covers homogeneous pipelines; heterogeneous ones
	// inherit the hardness).
	for _, gh := range bools {
		for _, obj := range []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency} {
			register(CellKey{kind, false, gh, true, obj},
				SolverEntry{MethodExhaustive, true, "Theorem 5", pipeKind.solve, pipeKind.prepare, nil})
		}
	}
}

// --- Polynomial cells (homogeneous platform) -------------------------------

func solvePipeHomPeriod(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := pipealgo.HomPeriod(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, classificationOf(pr)), nil
}

func solvePipeHomLatencyNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := pipealgo.HomLatencyNoDP(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, classificationOf(pr)), nil
}

// solvePipeHomBiCriteriaNoDP handles Corollary 1: without data-parallelism
// every mapping has latency W/s, so replicating everything reaches the
// minimum period; the bound only decides feasibility.
func solvePipeHomBiCriteriaNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	res, err := pipealgo.HomBiCriteriaNoDP(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	bounded := res.Cost.Period
	if pr.Objective == PeriodUnderLatency {
		bounded = res.Cost.Latency
	}
	if numeric.Greater(bounded, pr.Bound) {
		return infeasible(MethodClosedForm, true, cl), nil
	}
	return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
}

func solvePipeHomLatencyDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := pipealgo.HomLatencyDP(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return pipeSolution(res.Mapping, res.Cost, MethodDP, true, classificationOf(pr)), nil
}

func solvePipeHomLatencyUnderPeriodDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	res, ok, err := pipealgo.HomLatencyUnderPeriodDP(*pr.Pipeline, pr.Platform, pr.Bound)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(MethodDP, true, cl), nil
	}
	return pipeSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
}

func solvePipeHomPeriodUnderLatencyDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	res, ok, err := pipealgo.HomPeriodUnderLatencyDP(*pr.Pipeline, pr.Platform, pr.Bound)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(MethodDP, true, cl), nil
	}
	return pipeSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
}

// --- Polynomial cells (heterogeneous platform, no data-parallelism) --------

func solvePipeHetLatencyNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := pipealgo.HetLatencyNoDP(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, classificationOf(pr)), nil
}

func solvePipeHetHomPeriodNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := pipealgo.HetHomPipelinePeriodNoDP(*pr.Pipeline, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, classificationOf(pr)), nil
}

func solvePipeHetHomLatencyUnderPeriodNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	res, ok, err := pipealgo.HetHomPipelineLatencyUnderPeriodNoDP(*pr.Pipeline, pr.Platform, pr.Bound)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(MethodBinarySearchDP, true, cl), nil
	}
	return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
}

func solvePipeHetHomPeriodUnderLatencyNoDP(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	res, ok, err := pipealgo.HetHomPipelinePeriodUnderLatencyNoDP(*pr.Pipeline, pr.Platform, pr.Bound)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(MethodBinarySearchDP, true, cl), nil
	}
	return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
}

// --- NP-hard cells ---------------------------------------------------------

// pipeKind describes the NP-hard pipeline cells: the exhaustive bitmask DP
// when the platform is small enough, polynomial heuristics otherwise.
var pipeKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return pr.Platform.Processors() <= opts.MaxExhaustivePipelineProcs
	},
	newExact: func(pr Problem) (any, error) {
		return exhaustive.NewPipelinePrepared(*pr.Pipeline, pr.Platform, pr.AllowDataParallel), nil
	},
	exact: func(ctx context.Context, pp any, pr Problem) (Solution, bool, error) {
		return exhaustiveSolve(ctx, pp.(*exhaustive.PipelinePrepared), pr, func(r exhaustive.PipelineResult) Solution {
			return Solution{PipelineMapping: &r.Mapping, Cost: r.Cost}
		})
	},
	front: func(ctx context.Context, pp any) ([]float64, error) {
		return latencies(pp.(*exhaustive.PipelinePrepared).Front(ctx))
	},
	heuristic: perObjective(pipelineHeuristicCandidates, func(m *mapping.PipelineMapping, c mapping.Cost) Solution {
		return Solution{PipelineMapping: m, Cost: c}
	}),
	portfolio: func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error) {
		seeds, _ := pipelineHeuristicCandidates(pr)
		return anytime.SolvePipeline(ctx, *pr.Pipeline, pr.Platform, anytimeSpec(pr), seeds, cfg)
	},
}

// pipelineHeuristicCandidates returns the polynomial heuristic mappings
// of an NP-hard pipeline instance (with their costs, aligned by index).
// It is the candidate pool of both the oversized-instance heuristic path
// and the anytime portfolio's seeds.
func pipelineHeuristicCandidates(pr Problem) ([]mapping.PipelineMapping, []mapping.Cost) {
	p, pl := *pr.Pipeline, pr.Platform
	var maps []mapping.PipelineMapping
	var costs []mapping.Cost
	add := func(m mapping.PipelineMapping, c mapping.Cost, err error) {
		if err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	if pr.AllowDataParallel {
		m, c, err := heuristics.HetPipelineWithDP(p, pl, pr.Objective == MinPeriod || pr.Objective == PeriodUnderLatency)
		add(m, c, err)
		m, c, err = heuristics.HetPipelineWithDP(p, pl, false)
		add(m, c, err)
	}
	m, c, err := heuristics.HetPipelinePeriodNoDP(p, pl)
	add(m, c, err)
	{
		res, err := pipealgo.HetLatencyNoDP(p, pl)
		add(res.Mapping, res.Cost, err)
	}
	return maps, costs
}

// pickBestIndex selects the candidate cost minimizing the requested
// objective among those meeting the bound.
func pickBestIndex(costs []mapping.Cost, pr Problem) (int, bool) {
	best := -1
	for i, c := range costs {
		switch pr.Objective {
		case LatencyUnderPeriod:
			if numeric.Greater(c.Period, pr.Bound) {
				continue
			}
		case PeriodUnderLatency:
			if numeric.Greater(c.Latency, pr.Bound) {
				continue
			}
		}
		if best < 0 || numeric.Less(objectiveValue(c, pr.Objective), objectiveValue(costs[best], pr.Objective)) {
			best = i
		}
	}
	return best, best >= 0
}

func objectiveValue(c mapping.Cost, o Objective) float64 {
	if o == MinPeriod || o == PeriodUnderLatency {
		return c.Period
	}
	return c.Latency
}
