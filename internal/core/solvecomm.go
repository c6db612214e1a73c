package core

import (
	"context"

	"repliflow/internal/fullmodel"
	"repliflow/internal/mapping"
	"repliflow/internal/workflow"
)

// This file registers the communication-aware kinds of the full one-port
// model (Section 3 of the paper, internal/fullmodel): the comm-pipeline
// and comm-fork variants price every data transfer against explicit link
// bandwidths instead of assuming free communication. Both kinds require
// Problem.Bandwidth and override the platform-homogeneity axis with the
// stricter fully-homogeneous test (uniform speeds AND uniform links):
// the Subhlok-Vondran style dynamic programs of the hom-platform
// comm-pipeline cells are only exact under uniform bandwidths.

// commPlatform binds the instance's bandwidth description to its
// processor speeds, yielding the fullmodel evaluation platform. A
// prepared solver binds it once, when it is built.
func commPlatform(pr Problem) fullmodel.Platform {
	return pr.Bandwidth.Apply(pr.Platform.Speeds)
}

// commHomogeneous is the platform-homogeneity axis of the comm kinds:
// uniform speeds and uniform links, tested without binding the platform.
func commHomogeneous(pr Problem) bool {
	return pr.Bandwidth.FullyHomogeneous(pr.Platform.Speeds)
}

// commGoal projects the problem objective onto the fullmodel goal.
func commGoal(pr Problem) fullmodel.Goal {
	switch pr.Objective {
	case MinPeriod:
		return fullmodel.Goal{MinimizePeriod: true}
	case MinLatency:
		return fullmodel.Goal{}
	case LatencyUnderPeriod:
		return fullmodel.Goal{PeriodCap: pr.Bound}
	default: // PeriodUnderLatency
		return fullmodel.Goal{MinimizePeriod: true, LatencyCap: pr.Bound}
	}
}

// commCost converts a fullmodel cost into the solution cost type.
func commCost(c fullmodel.Cost) mapping.Cost {
	return mapping.Cost{Period: c.Period, Latency: c.Latency}
}

// fpBandwidth appends the canonical bandwidth encoding: a flag byte
// distinguishing the uniform form from full tables, then the values.
func fpBandwidth(b []byte, bw *fullmodel.Bandwidth) []byte {
	if bw.Uniform != 0 {
		return fpFloat(append(b, 0), bw.Uniform)
	}
	b = append(b, 1)
	for _, row := range bw.Links {
		b = fpFloats(b, row)
	}
	b = fpFloats(b, bw.In)
	return fpFloats(b, bw.Out)
}

func init() {
	registerKind(KindSpec{
		Kind:     workflow.KindCommPipeline,
		Name:     workflow.KindCommPipeline.String(),
		HasGraph: func(pr Problem) bool { return pr.CommPipeline != nil },
		ValidateGraph: func(pr Problem) error {
			return pr.CommPipeline.Validate()
		},
		GraphHomogeneous:    func(pr Problem) bool { return pr.CommPipeline.IsHomogeneous() },
		PlatformHomogeneous: commHomogeneous,
		NeedsBandwidth:      true,
		Classify:            classifyCommPipeline,
		ExactlySolvable:     commPipeKind.inLimits,
		// Only the het-platform exhaustive scan has a partitioned path; the
		// hom-platform DP is polynomial and stays serial.
		ParallelWorthwhile: func(pr Problem) bool {
			return !commHomogeneous(pr) &&
				pr.CommPipeline.Stages() >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		SeedMix: func(pr Problem, mix func(float64)) {
			for _, w := range pr.CommPipeline.Weights {
				mix(w)
			}
			for _, d := range pr.CommPipeline.Data {
				mix(d)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloats(append(b, 'C'), pr.CommPipeline.Weights)
			b = fpFloats(b, pr.CommPipeline.Data)
			return fpBandwidth(b, pr.Bandwidth)
		},
	})
	registerKind(KindSpec{
		Kind:     workflow.KindCommFork,
		Name:     workflow.KindCommFork.String(),
		HasGraph: func(pr Problem) bool { return pr.CommFork != nil },
		ValidateGraph: func(pr Problem) error {
			return pr.CommFork.Validate()
		},
		GraphHomogeneous:    func(pr Problem) bool { return pr.CommFork.IsHomogeneous() },
		PlatformHomogeneous: commHomogeneous,
		NeedsBandwidth:      true,
		Classify:            func(CellKey) *tableCell { return commForkCell },
		ExactlySolvable:     commForkKind.inLimits,
		// The one-port fork scan stays serial (instances behind the limits
		// are small enough that scratch reuse dominates), so there is no
		// ParallelWorthwhile.
		SeedMix: func(pr Problem, mix func(float64)) {
			mix(pr.CommFork.Root)
			mix(pr.CommFork.In)
			mix(pr.CommFork.Out0)
			for _, w := range pr.CommFork.Weights {
				mix(w)
			}
			for _, o := range pr.CommFork.Outs {
				mix(o)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloat(append(b, 'G'), pr.CommFork.Root)
			b = fpFloat(b, pr.CommFork.In)
			b = fpFloat(b, pr.CommFork.Out0)
			b = fpFloats(b, pr.CommFork.Weights)
			b = fpFloats(b, pr.CommFork.Outs)
			return fpBandwidth(b, pr.Bandwidth)
		},
	})
}

// The communication-aware columns of Table 1. Comm-pipelines on fully
// homogeneous platforms are polynomial: latency objectives by the
// interval DP, period objectives by binary search over the candidate
// periods. On heterogeneous platforms they are NP-hard and solved
// exhaustively within the fork limits. Comm-forks are NP-hard on every
// axis: the one-port serialization makes even uniform instances a
// partition problem.
const commPipeHomSource = "Section 3.2 (hom. platform)"

var (
	commPipeHomPeriod  = &tableCell{Classification{PolyBinarySearchDP, commPipeHomSource}, solveCommPipeHom, prepareCommPipeHom}
	commPipeHomLatency = &tableCell{Classification{PolyDP, commPipeHomSource}, solveCommPipeHom, prepareCommPipeHom}
	commPipeHet        = npHardCell("Section 3.2 (het. platform)", &commPipeKind)
	commForkCell       = npHardCell("Section 3.3 (one-port fork)", &commForkKind)
)

// classifyCommPipeline is the Classify capability of the comm-pipeline
// kind.
func classifyCommPipeline(k CellKey) *tableCell {
	switch {
	case !k.PlatformHomogeneous:
		return commPipeHet
	case k.Objective == MinPeriod || k.Objective == PeriodUnderLatency:
		return commPipeHomPeriod
	default:
		return commPipeHomLatency
	}
}

// commPipeKind describes the NP-hard het-platform comm-pipeline cells:
// the exhaustive interval scan within the limits (it assigns intervals to
// distinct processors, so it reuses the fork limits), the deterministic
// heuristic seeds beyond them.
var commPipeKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return pr.CommPipeline.Stages() <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		solver, err := fullmodel.NewPipelinePrepared(*pr.CommPipeline, commPlatform(pr))
		return solver, err
	},
	exact: func(ctx context.Context, pp any, pr Problem) (Solution, bool, error) {
		m, c, ok, err := pp.(*fullmodel.PipelinePrepared).SolveExact(ctx, commGoal(pr))
		if !ok || err != nil {
			return Solution{}, false, err
		}
		return commPipeMapped(m, commCost(c)), true, nil
	},
	front: func(ctx context.Context, pp any) ([]float64, error) {
		return latencies(pp.(*fullmodel.PipelinePrepared).Front(ctx))
	},
	heuristic: func(pr Problem, shared bool) (hardSolve, error) {
		p, pl := *pr.CommPipeline, commPlatform(pr)
		eval := func(m fullmodel.Mapping) (fullmodel.Cost, error) { return fullmodel.Eval(p, pl, m) }
		return commHeuristic(fullmodel.HeuristicCandidates(p, pl), eval, shared, cloneCommPipeMapping, commPipeMapped)
	},
}

// commForkKind describes the one-port fork cells, NP-hard on every axis:
// the exhaustive partition scan within the limits, the deterministic
// heuristic seeds (each finished with its latency-optimal send order)
// beyond them.
var commForkKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return pr.CommFork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		solver, err := fullmodel.NewForkPrepared(*pr.CommFork, commPlatform(pr))
		return solver, err
	},
	exact: func(ctx context.Context, fp any, pr Problem) (Solution, bool, error) {
		m, c, ok, err := fp.(*fullmodel.ForkPrepared).SolveExact(ctx, commGoal(pr))
		if !ok || err != nil {
			return Solution{}, false, err
		}
		return commForkMapped(m, commCost(c)), true, nil
	},
	heuristic: func(pr Problem, shared bool) (hardSolve, error) {
		f, pl := *pr.CommFork, commPlatform(pr)
		eval := func(m fullmodel.ForkMapping) (fullmodel.Cost, error) { return fullmodel.EvalFork(f, pl, m, false) }
		return commHeuristic(fullmodel.ForkHeuristicCandidates(f, pl), eval, shared, cloneCommForkMapping, commForkMapped)
	},
}

// commPipeMapped and commForkMapped wrap a hard cell's mapping and cost.
func commPipeMapped(m fullmodel.Mapping, c mapping.Cost) Solution {
	return Solution{CommPipelineMapping: &m, Cost: c}
}

func commForkMapped(m fullmodel.ForkMapping, c mapping.Cost) Solution {
	return Solution{CommForkMapping: &m, Cost: c}
}

// commPipeHom builds the polynomial hom-platform comm-pipeline cell on
// one fullmodel.PipelinePrepared: its bound platform, reusable DP arrays
// and the candidate-period set serve every objective of the family.
// Prepare shares the cell; the cell's solver uses it once.
func commPipeHom(pr Problem) (PreparedSolve, error) {
	pp, err := fullmodel.NewPipelinePrepared(*pr.CommPipeline, commPlatform(pr))
	if err != nil {
		return nil, err
	}
	return func(_ context.Context, pr Problem) (Solution, error) {
		m, c, ok, err := pp.SolveHom(commGoal(pr))
		cl := classificationOf(pr)
		return stamp(commPipeMapped(m, commCost(c)), ok, err, cl.Complexity.method(), true, cl)
	}, nil
}

func solveCommPipeHom(ctx context.Context, pr Problem, _ Options) (Solution, error) {
	solve, err := commPipeHom(pr)
	if err != nil {
		return Solution{}, err
	}
	return solve(ctx, pr)
}

func prepareCommPipeHom(pr Problem, _ Options) *PreparedCell {
	solve, err := commPipeHom(pr)
	if err != nil {
		return nil
	}
	return &PreparedCell{Solve: solve}
}

// cloneCommPipeMapping deep-copies a pipeline mapping so prepared solves
// never hand out aliases of the cached candidate set.
func cloneCommPipeMapping(m fullmodel.Mapping) fullmodel.Mapping {
	return fullmodel.Mapping{Bounds: append([]int(nil), m.Bounds...), Alloc: append([]int(nil), m.Alloc...)}
}

// cloneCommForkMapping is cloneCommPipeMapping for fork mappings. It keeps
// the nil-ness of every slice, so clones stay deep-equal to the one-shot
// results.
func cloneCommForkMapping(m fullmodel.ForkMapping) fullmodel.ForkMapping {
	out := fullmodel.ForkMapping{
		RootBlock: m.RootBlock,
		Blocks:    make([]fullmodel.ForkBlock, len(m.Blocks)),
		SendOrder: cloneInts(m.SendOrder),
	}
	for i, b := range m.Blocks {
		out.Blocks[i] = fullmodel.ForkBlock{Proc: b.Proc, Leaves: cloneInts(b.Leaves)}
	}
	return out
}

// cloneInts copies an int slice preserving nil-ness.
func cloneInts(s []int) []int {
	if s == nil {
		return nil
	}
	out := make([]int, len(s))
	copy(out, s)
	return out
}
