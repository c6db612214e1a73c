// The seed's if-chain dispatch, preserved verbatim (modulo legacy~ renames)
// from before the solver-registry refactor. It exists only as the reference
// oracle for TestRegistryMatchesSeedDispatch: the registry-driven
// Solve/SolveContext must return byte-identical mappings and costs on a
// randomized corpus covering every Table 1 cell.
package core

import (
	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/workflow"
)

// pipeSolution, forkSolution and forkJoinSolution wrap a mapping into a
// Solution.
func pipeSolution(m mapping.PipelineMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		PipelineMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

func forkSolution(m mapping.ForkMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		ForkMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

func forkJoinSolution(m mapping.ForkJoinMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		ForkJoinMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

// legacySolve is the seed's core.Solve.
func legacySolve(pr Problem, opts Options) (Solution, error) {
	if err := pr.Validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.Normalized()
	switch {
	case pr.Pipeline != nil:
		return legacySolvePipeline(pr, opts)
	case pr.Fork != nil:
		return legacySolveFork(pr, opts)
	default:
		return legacySolveForkJoin(pr, opts)
	}
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

func legacySolveFork(pr Problem, opts Options) (Solution, error) {
	f := *pr.Fork
	pl := pr.Platform
	cl, err := Classify(pr)
	if err != nil {
		return Solution{}, err
	}

	if pl.IsHomogeneous() {
		if pr.Objective == MinPeriod {
			res, err := forkalgo.HomForkPeriod(f, pl)
			if err != nil {
				return Solution{}, err
			}
			return forkSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
		}
		if f.IsHomogeneous() {
			return legacySolveForkTheorem11(pr, f, cl)
		}
		return legacySolveForkHard(pr, f, cl, opts), nil
	}

	if !pr.AllowDataParallel && f.IsHomogeneous() {
		return legacySolveForkTheorem14(pr, f, cl)
	}
	return legacySolveForkHard(pr, f, cl, opts), nil
}

func legacySolveForkTheorem11(pr Problem, f workflow.Fork, cl Classification) (Solution, error) {
	pl, dp := pr.Platform, pr.AllowDataParallel
	switch pr.Objective {
	case MinLatency:
		res, err := forkalgo.HomForkLatency(f, pl, dp)
		if err != nil {
			return Solution{}, err
		}
		return forkSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	case LatencyUnderPeriod:
		res, ok, err := forkalgo.HomForkLatencyUnderPeriod(f, pl, dp, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	default: // PeriodUnderLatency
		res, ok, err := forkalgo.HomForkPeriodUnderLatency(f, pl, dp, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	}
}

func legacySolveForkTheorem14(pr Problem, f workflow.Fork, cl Classification) (Solution, error) {
	pl := pr.Platform
	switch pr.Objective {
	case MinPeriod:
		res, err := forkalgo.HetHomForkPeriodNoDP(f, pl)
		if err != nil {
			return Solution{}, err
		}
		return forkSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	case MinLatency:
		res, err := forkalgo.HetHomForkLatencyNoDP(f, pl)
		if err != nil {
			return Solution{}, err
		}
		return forkSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	case LatencyUnderPeriod:
		res, ok, err := forkalgo.HetHomForkLatencyUnderPeriodNoDP(f, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodBinarySearchDP, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	default:
		res, ok, err := forkalgo.HetHomForkPeriodUnderLatencyNoDP(f, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodBinarySearchDP, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	}
}

func legacySolveForkHard(pr Problem, f workflow.Fork, cl Classification, opts Options) Solution {
	pl, dp := pr.Platform, pr.AllowDataParallel
	if f.Leaves()+1 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		var res exhaustive.ForkResult
		var ok bool
		switch pr.Objective {
		case MinPeriod:
			res, ok = exhaustive.ForkPeriod(f, pl, dp)
		case MinLatency:
			res, ok = exhaustive.ForkLatency(f, pl, dp)
		case LatencyUnderPeriod:
			res, ok = exhaustive.ForkLatencyUnderPeriod(f, pl, dp, pr.Bound)
		default:
			res, ok = exhaustive.ForkPeriodUnderLatency(f, pl, dp, pr.Bound)
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl)
		}
		return forkSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl)
	}
	var maps []mapping.ForkMapping
	var costs []mapping.Cost
	add := func(m mapping.ForkMapping) {
		if c, err := mapping.EvalFork(f, pl, m); err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	add(mapping.ReplicateAllFork(f, pl))
	add(wholeForkOnProcessor(f, pl.Fastest()))
	if m, _, err := heuristics.HetForkPeriodGreedy(f, pl); err == nil {
		add(m)
	}
	if pl.IsHomogeneous() {
		if m, _, err := heuristics.HetForkLatencyLPT(f, pl); err == nil {
			add(m)
		}
	}
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl)
	}
	best, bestCost := maps[idx], costs[idx]
	obj := heuristics.ForkMinLatency
	if pr.Objective == MinPeriod || pr.Objective == PeriodUnderLatency {
		obj = heuristics.ForkMinPeriod
	}
	if m, c, err := heuristics.LocalSearchFork(f, pl, best, obj); err == nil {
		ok := true
		switch pr.Objective {
		case LatencyUnderPeriod:
			ok = !numeric.Greater(c.Period, pr.Bound)
		case PeriodUnderLatency:
			ok = !numeric.Greater(c.Latency, pr.Bound)
		}
		if ok && numeric.Less(objectiveValue(c, pr.Objective), objectiveValue(bestCost, pr.Objective)) {
			best, bestCost = m, c
		}
	}
	return forkSolution(best, bestCost, MethodHeuristic, false, cl)
}

func legacySolveForkJoin(pr Problem, opts Options) (Solution, error) {
	fj := *pr.ForkJoin
	pl := pr.Platform
	cl, err := Classify(pr)
	if err != nil {
		return Solution{}, err
	}

	if pl.IsHomogeneous() {
		if pr.Objective == MinPeriod {
			res, err := forkalgo.HomForkJoinPeriod(fj, pl)
			if err != nil {
				return Solution{}, err
			}
			return forkJoinSolution(res.Mapping, res.Cost, MethodClosedForm, true, cl), nil
		}
		if fj.IsHomogeneous() {
			return legacySolveForkJoinTheorem11(pr, fj, cl)
		}
		return legacySolveForkJoinHard(pr, fj, cl, opts), nil
	}
	if !pr.AllowDataParallel && fj.IsHomogeneous() {
		return legacySolveForkJoinTheorem14(pr, fj, cl)
	}
	return legacySolveForkJoinHard(pr, fj, cl, opts), nil
}

func legacySolveForkJoinTheorem11(pr Problem, fj workflow.ForkJoin, cl Classification) (Solution, error) {
	pl, dp := pr.Platform, pr.AllowDataParallel
	switch pr.Objective {
	case MinLatency:
		res, err := forkalgo.HomForkJoinLatency(fj, pl, dp)
		if err != nil {
			return Solution{}, err
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	case LatencyUnderPeriod:
		res, ok, err := forkalgo.HomForkJoinLatencyUnderPeriod(fj, pl, dp, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	default:
		res, ok, err := forkalgo.HomForkJoinPeriodUnderLatency(fj, pl, dp, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodDP, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodDP, true, cl), nil
	}
}

func legacySolveForkJoinTheorem14(pr Problem, fj workflow.ForkJoin, cl Classification) (Solution, error) {
	pl := pr.Platform
	switch pr.Objective {
	case MinPeriod:
		res, err := forkalgo.HetHomForkJoinPeriodNoDP(fj, pl)
		if err != nil {
			return Solution{}, err
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	case MinLatency:
		res, err := forkalgo.HetHomForkJoinLatencyNoDP(fj, pl)
		if err != nil {
			return Solution{}, err
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	case LatencyUnderPeriod:
		res, ok, err := forkalgo.HetHomForkJoinLatencyUnderPeriodNoDP(fj, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodBinarySearchDP, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	default:
		res, ok, err := forkalgo.HetHomForkJoinPeriodUnderLatencyNoDP(fj, pl, pr.Bound)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodBinarySearchDP, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodBinarySearchDP, true, cl), nil
	}
}

func legacySolveForkJoinHard(pr Problem, fj workflow.ForkJoin, cl Classification, opts Options) Solution {
	pl, dp := pr.Platform, pr.AllowDataParallel
	if fj.Leaves()+2 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		var res exhaustive.ForkJoinResult
		var ok bool
		switch pr.Objective {
		case MinPeriod:
			res, ok = exhaustive.ForkJoinPeriod(fj, pl, dp)
		case MinLatency:
			res, ok = exhaustive.ForkJoinLatency(fj, pl, dp)
		case LatencyUnderPeriod:
			res, ok = exhaustive.ForkJoinLatencyUnderPeriod(fj, pl, dp, pr.Bound)
		default:
			res, ok = exhaustive.ForkJoinPeriodUnderLatency(fj, pl, dp, pr.Bound)
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl)
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl)
	}
	var maps []mapping.ForkJoinMapping
	var costs []mapping.Cost
	add := func(m mapping.ForkJoinMapping) {
		if c, err := mapping.EvalForkJoin(fj, pl, m); err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	add(mapping.ReplicateAllForkJoin(fj, pl))
	add(wholeForkJoinOnProcessor(fj, pl.Fastest()))
	minPeriod := pr.Objective == MinPeriod || pr.Objective == PeriodUnderLatency
	if m, _, err := heuristics.HetForkJoinGreedy(fj, pl, minPeriod); err == nil {
		add(m)
	}
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl)
	}
	return forkJoinSolution(maps[idx], costs[idx], MethodHeuristic, false, cl)
}
