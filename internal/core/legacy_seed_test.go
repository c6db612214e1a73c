// The seed's if-chain dispatch of pipelines, preserved verbatim (modulo
// legacy~ renames) from before the solver-registry refactor. It exists
// only as the reference oracle for TestRegistryMatchesSeedDispatch: the
// registry-driven Solve/SolveContext must return byte-identical mappings
// and costs on a randomized corpus covering every pipeline cell of
// Table 1. The fork and fork-join cells are pinned by poly.golden
// (Theorems 10, 11 and 14) and hard.golden (Theorems 12, 13, 15 and
// 12/15) instead.
package core

import (
	"repliflow/internal/exhaustive"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/workflow"
)

// pipeSolution wraps a mapping into a Solution.
func pipeSolution(m mapping.PipelineMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		PipelineMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

// legacySolve is the seed's core.Solve.
func legacySolve(pr Problem, opts Options) (Solution, error) {
	if err := pr.Validate(); err != nil {
		return Solution{}, err
	}
	return legacySolvePipeline(pr, opts.Normalized())
}

func legacySolvePipeline(pr Problem, opts Options) (Solution, error) {
	p := *pr.Pipeline
	pl := pr.Platform
	cl, err := Classify(pr)
	if err != nil {
		return Solution{}, err
	}
	if pl.IsHomogeneous() {
		return legacySolvePipelineHom(pr, p, cl)
	}
	if pr.AllowDataParallel {
		return legacySolvePipelineHard(pr, p, cl, opts), nil
	}
	return legacySolvePipelineHetNoDP(pr, p, cl, opts)
}

func legacySolvePipelineHom(pr Problem, p workflow.Pipeline, cl Classification) (Solution, error) {
	pl := pr.Platform
	switch pr.Objective {
	case MinPeriod:
		res, err := pipealgo.HomPeriod(p, pl)
		if err != nil {
			return Solution{}, err
		}
		return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
	case MinLatency:
		if !pr.AllowDataParallel {
			res, err := pipealgo.HomLatencyNoDP(p, pl)
			if err != nil {
				return Solution{}, err
			}
			return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
		}
		res, err := pipealgo.HomLatencyDP(p, pl)
		if err != nil {
			return Solution{}, err
		}
		return pipeSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	case LatencyUnderPeriod:
		if !pr.AllowDataParallel {
			res, err := pipealgo.HomBiCriteriaNoDP(p, pl)
			if err != nil {
				return Solution{}, err
			}
			if numeric.Greater(res.Cost.Period, pr.Bound) {
				return infeasible(MethodClosedForm, true, cl), nil
			}
			return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
		}
		res, ok, err := pipealgo.HomLatencyUnderPeriodDP(p, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return pipeSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	default: // PeriodUnderLatency
		if !pr.AllowDataParallel {
			res, err := pipealgo.HomBiCriteriaNoDP(p, pl)
			if err != nil {
				return Solution{}, err
			}
			if numeric.Greater(res.Cost.Latency, pr.Bound) {
				return infeasible(MethodClosedForm, true, cl), nil
			}
			return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
		}
		res, ok, err := pipealgo.HomPeriodUnderLatencyDP(p, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return pipeSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	}
}

func legacySolvePipelineHetNoDP(pr Problem, p workflow.Pipeline, cl Classification, opts Options) (Solution, error) {
	pl := pr.Platform
	switch pr.Objective {
	case MinLatency:
		res, err := pipealgo.HetLatencyNoDP(p, pl)
		if err != nil {
			return Solution{}, err
		}
		return pipeSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
	case MinPeriod:
		if p.IsHomogeneous() {
			res, err := pipealgo.HetHomPipelinePeriodNoDP(p, pl)
			if err != nil {
				return Solution{}, err
			}
			return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
		}
		return legacySolvePipelineHard(pr, p, cl, opts), nil
	case LatencyUnderPeriod:
		if p.IsHomogeneous() {
			res, ok, err := pipealgo.HetHomPipelineLatencyUnderPeriodNoDP(p, pl, pr.Bound)
			if err != nil {
				return Solution{}, err
			}
			if !ok {
				return infeasible(MethodBinarySearchDP, true, cl), nil
			}
			return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
		}
		return legacySolvePipelineHard(pr, p, cl, opts), nil
	default: // PeriodUnderLatency
		if p.IsHomogeneous() {
			res, ok, err := pipealgo.HetHomPipelinePeriodUnderLatencyNoDP(p, pl, pr.Bound)
			if err != nil {
				return Solution{}, err
			}
			if !ok {
				return infeasible(MethodBinarySearchDP, true, cl), nil
			}
			return pipeSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
		}
		return legacySolvePipelineHard(pr, p, cl, opts), nil
	}
}

func legacySolvePipelineHard(pr Problem, p workflow.Pipeline, cl Classification, opts Options) Solution {
	pl := pr.Platform
	dp := pr.AllowDataParallel
	if pl.Processors() <= opts.MaxExhaustivePipelineProcs {
		var res exhaustive.PipelineResult
		var ok bool
		switch pr.Objective {
		case MinPeriod:
			res, ok = exhaustive.PipelinePeriod(p, pl, dp)
		case MinLatency:
			res, ok = exhaustive.PipelineLatency(p, pl, dp)
		case LatencyUnderPeriod:
			res, ok = exhaustive.PipelineLatencyUnderPeriod(p, pl, dp, pr.Bound)
		default:
			res, ok = exhaustive.PipelinePeriodUnderLatency(p, pl, dp, pr.Bound)
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl)
		}
		return pipeSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl)
	}
	var maps []mapping.PipelineMapping
	var costs []mapping.Cost
	add := func(m mapping.PipelineMapping, c mapping.Cost, err error) {
		if err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	if dp {
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
	idx, okBest := pickBestIndex(costs, pr)
	if !okBest {
		return infeasible(MethodHeuristic, false, cl)
	}
	return pipeSolution(maps[idx], costs[idx], MethodHeuristic, false, cl)
}
