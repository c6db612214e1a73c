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

// The pipeline column of Table 1. On homogeneous platforms every cell is
// polynomial (Theorems 1-4, Corollary 1). On heterogeneous platforms
// latency without data-parallelism is polynomial (Theorem 6), and so are
// the period objectives of homogeneous pipelines (Theorems 7-8); the
// rest is NP-hard (Theorems 5 and 9).
var (
	pipeTheorem1 = polyCell(PolyStraightforward, "Theorem 1", func(pr Problem) (Solution, bool, error) {
		return pipeRun(feasible(pipealgo.HomPeriod(*pr.Pipeline, pr.Platform)))
	})
	pipeTheorem2 = polyCell(PolyStraightforward, "Theorem 2", func(pr Problem) (Solution, bool, error) {
		return pipeRun(feasible(pipealgo.HomLatencyNoDP(*pr.Pipeline, pr.Platform)))
	})
	// Without data-parallelism every mapping has latency W/s, so
	// replicating everything reaches the minimum period; the bound only
	// decides feasibility.
	pipeCorollary1 = polyCell(PolyStraightforward, "Corollary 1", func(pr Problem) (Solution, bool, error) {
		res, err := pipealgo.HomBiCriteriaNoDP(*pr.Pipeline, pr.Platform)
		bounded := res.Cost.Period
		if pr.Objective == PeriodUnderLatency {
			bounded = res.Cost.Latency
		}
		return pipeRun(res, !numeric.Greater(bounded, pr.Bound), err)
	})
	pipeTheorem3 = polyCell(PolyDP, "Theorem 3", func(pr Problem) (Solution, bool, error) {
		return pipeRun(feasible(pipealgo.HomLatencyDP(*pr.Pipeline, pr.Platform)))
	})
	pipeTheorem4 = polyCell(PolyDP, "Theorem 4", func(pr Problem) (Solution, bool, error) {
		if pr.Objective == LatencyUnderPeriod {
			return pipeRun(pipealgo.HomLatencyUnderPeriodDP(*pr.Pipeline, pr.Platform, pr.Bound))
		}
		return pipeRun(pipealgo.HomPeriodUnderLatencyDP(*pr.Pipeline, pr.Platform, pr.Bound))
	})
	pipeTheorem5 = npHardCell("Theorem 5", &pipeKind)
	pipeTheorem6 = polyCell(PolyStraightforward, "Theorem 6", func(pr Problem) (Solution, bool, error) {
		return pipeRun(feasible(pipealgo.HetLatencyNoDP(*pr.Pipeline, pr.Platform)))
	})
	pipeTheorem7 = polyCell(PolyBinarySearchDP, "Theorem 7", func(pr Problem) (Solution, bool, error) {
		return pipeRun(feasible(pipealgo.HetHomPipelinePeriodNoDP(*pr.Pipeline, pr.Platform)))
	})
	pipeTheorem8 = polyCell(PolyBinarySearchDP, "Theorem 8", func(pr Problem) (Solution, bool, error) {
		if pr.Objective == LatencyUnderPeriod {
			return pipeRun(pipealgo.HetHomPipelineLatencyUnderPeriodNoDP(*pr.Pipeline, pr.Platform, pr.Bound))
		}
		return pipeRun(pipealgo.HetHomPipelinePeriodUnderLatencyNoDP(*pr.Pipeline, pr.Platform, pr.Bound))
	})
	pipeTheorem9 = npHardCell("Theorem 9", &pipeKind)
)

// pipeRun adapts a pipeline algorithm's result to polyCell's run. The
// solution points at a copy of the mapping alone, not at the whole result.
func pipeRun(r pipealgo.Result, ok bool, err error) (Solution, bool, error) {
	m := r.Mapping
	return Solution{PipelineMapping: &m, Cost: r.Cost}, ok, err
}

// classifyPipeline is the Classify capability of the pipeline kind.
func classifyPipeline(k CellKey) *tableCell {
	obj, dp := k.Objective, k.DataParallel
	if k.PlatformHomogeneous {
		switch {
		case obj == MinPeriod:
			return pipeTheorem1
		case !dp && obj == MinLatency:
			return pipeTheorem2
		case !dp && obj.Bounded():
			return pipeCorollary1
		case obj == MinLatency:
			return pipeTheorem3
		default:
			return pipeTheorem4
		}
	}
	switch {
	case dp:
		// NP-hard already for homogeneous pipelines (Theorem 5); the
		// heterogeneous case inherits it.
		return pipeTheorem5
	case obj == MinLatency:
		return pipeTheorem6
	case k.GraphHomogeneous && obj == MinPeriod:
		return pipeTheorem7
	case k.GraphHomogeneous:
		return pipeTheorem8
	default:
		return pipeTheorem9
	}
}

func init() {
	kind := workflow.KindPipeline
	registerKind(KindSpec{
		Kind:             kind,
		Name:             kind.String(),
		HasGraph:         func(pr Problem) bool { return pr.Pipeline != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Pipeline.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Pipeline.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyPipeline,
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
