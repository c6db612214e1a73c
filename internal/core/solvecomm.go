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
	bools := []bool{false, true}
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}

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
		ExactlySolvable:     commPipeInLimits,
		// Every comm-pipeline cell prepares: the hom-platform DP reuses its
		// tables and candidate set, the het-platform exhaustive its scratch
		// and memo, the oversized path its heuristic candidate evaluations.
		Preparable: func(Problem, Options) bool { return true },
		// Only the het-platform exhaustive scan has a partitioned path; the
		// hom-platform DP is polynomial and stays serial.
		ParallelWorthwhile: func(pr Problem) bool {
			return !commHomogeneous(pr) &&
				pr.CommPipeline.Stages() >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		CandidatePeriods: func(pr Problem) []float64 {
			return fullmodel.PeriodCandidates(*pr.CommPipeline, commPlatform(pr))
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
		Classify: func(CellKey) Classification {
			return Classification{NPHard, "Section 3.3 (one-port fork)"}
		},
		ExactlySolvable: commForkInLimits,
		// Every comm-fork cell prepares; the fork scan itself stays serial
		// (instances behind the limits are small enough that scratch reuse
		// dominates), so there is no ParallelWorthwhile.
		Preparable:       func(Problem, Options) bool { return true },
		CandidatePeriods: commForkCandidatePeriods,
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

	// Comm-pipeline cells. Fully homogeneous platforms are polynomial
	// (latency objectives by the interval DP, period objectives by binary
	// search over the candidate periods); heterogeneous platforms are
	// NP-hard and solved exhaustively within the fork limits.
	for _, gh := range bools {
		for _, obj := range objs {
			method := MethodDP
			if obj == MinPeriod || obj == PeriodUnderLatency {
				method = MethodBinarySearchDP
			}
			register(CellKey{workflow.KindCommPipeline, true, gh, false, obj},
				SolverEntry{method, true, "Section 3.2 (hom. platform)", solveCommPipeHom, prepareCommPipeHom, nil})
			register(CellKey{workflow.KindCommPipeline, false, gh, false, obj},
				SolverEntry{MethodExhaustive, true, "Section 3.2 (het. platform)", solveCommPipeHard, prepareCommPipeHard, nil})
		}
	}
	// Comm-fork cells: NP-hard on every axis combination (the one-port
	// serialization makes even uniform instances a partition problem).
	for _, ph := range bools {
		for _, gh := range bools {
			for _, obj := range objs {
				register(CellKey{workflow.KindCommFork, ph, gh, false, obj},
					SolverEntry{MethodExhaustive, true, "Section 3.3 (one-port fork)", solveCommForkHard, prepareCommFork, nil})
			}
		}
	}
}

// classifyCommPipeline is the Classify capability of the comm-pipeline
// kind: polynomial on fully homogeneous platforms, NP-hard otherwise.
func classifyCommPipeline(k CellKey) Classification {
	if !k.PlatformHomogeneous {
		return Classification{NPHard, "Section 3.2 (het. platform)"}
	}
	if k.Objective == MinPeriod || k.Objective == PeriodUnderLatency {
		return Classification{PolyBinarySearchDP, "Section 3.2 (hom. platform)"}
	}
	return Classification{PolyDP, "Section 3.2 (hom. platform)"}
}

// commPipeInLimits gates the exhaustive comm-pipeline search: the
// enumeration assigns intervals to distinct processors, so it reuses the
// fork limits (stage count and processor count).
func commPipeInLimits(pr Problem, opts Options) bool {
	return pr.CommPipeline.Stages() <= opts.MaxExhaustiveForkStages &&
		pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
}

// commForkInLimits gates the exhaustive one-port fork search.
func commForkInLimits(pr Problem, opts Options) bool {
	return pr.CommFork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
		pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
}

// commForkCandidatePeriods approximates the achievable period set of a
// one-port fork with the communication-free block weights expanded over
// the raw speeds. The true period adds transfer terms, so this set is
// deliberately coarse — missing candidates only coarsen the Pareto front
// between points, exactly like the oversized-platform speed-sum
// approximation of subsetSpeedSums.
func commForkCandidatePeriods(pr Problem) []float64 {
	f := pr.CommFork
	return periodsFromWeights(forkBlockWeights(f.Root, 0, false, f.Weights), pr.Platform)
}

// commPipeSolution wraps a comm-pipeline mapping into a Solution.
func commPipeSolution(m fullmodel.Mapping, c fullmodel.Cost, method Method, exact bool, cl Classification) Solution {
	return Solution{
		CommPipelineMapping: &m, Cost: commCost(c),
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

// commForkSolution wraps a one-port fork mapping into a Solution.
func commForkSolution(m fullmodel.ForkMapping, c fullmodel.Cost, method Method, exact bool, cl Classification) Solution {
	return Solution{
		CommForkMapping: &m, Cost: commCost(c),
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

// methodForCommPipeObjective mirrors the registration table: binary
// search for the period objectives, plain DP for the latency ones.
func methodForCommPipeObjective(o Objective) Method {
	if o == MinPeriod || o == PeriodUnderLatency {
		return MethodBinarySearchDP
	}
	return MethodDP
}

// solveCommPipeHom solves the polynomial hom-platform comm-pipeline
// cells through the fullmodel dynamic programs.
func solveCommPipeHom(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	method := methodForCommPipeObjective(pr.Objective)
	m, c, ok, err := fullmodel.SolveHom(*pr.CommPipeline, commPlatform(pr), commGoal(pr))
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return infeasible(method, true, cl), nil
	}
	return commPipeSolution(m, c, method, true, cl), nil
}

// solveCommPipeHard solves the NP-hard het-platform comm-pipeline cells:
// exhaustively within the limits, otherwise by the deterministic
// heuristic seeds.
func solveCommPipeHard(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cl := classificationOf(pr)
	p, pl, goal := *pr.CommPipeline, commPlatform(pr), commGoal(pr)
	if commPipeInLimits(pr, opts) {
		pp, err := fullmodel.NewPipelinePrepared(p, pl)
		if err != nil {
			return Solution{}, err
		}
		pp.SetParallelism(searchParallelism(opts, pr))
		m, c, ok, err := pp.SolveExact(ctx, goal)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return commPipeSolution(m, c, MethodExhaustive, true, cl), nil
	}
	cands := fullmodel.HeuristicCandidates(p, pl)
	costs := make([]mapping.Cost, len(cands))
	full := make([]fullmodel.Cost, len(cands))
	for i, m := range cands {
		c, err := fullmodel.Eval(p, pl, m)
		if err != nil {
			return Solution{}, err
		}
		costs[i], full[i] = commCost(c), c
	}
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return commPipeSolution(cands[idx], full[idx], MethodHeuristic, false, cl), nil
}

// solveCommForkHard solves every one-port fork cell: exhaustively within
// the limits, otherwise by the deterministic heuristic seeds (each
// finished with its latency-optimal send order).
func solveCommForkHard(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cl := classificationOf(pr)
	f, pl, goal := *pr.CommFork, commPlatform(pr), commGoal(pr)
	if commForkInLimits(pr, opts) {
		m, c, ok, err := fullmodel.SolveForkExact(ctx, f, pl, goal)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return commForkSolution(m, c, MethodExhaustive, true, cl), nil
	}
	cands := fullmodel.ForkHeuristicCandidates(f, pl)
	costs := make([]mapping.Cost, len(cands))
	full := make([]fullmodel.Cost, len(cands))
	for i, m := range cands {
		c, err := fullmodel.EvalFork(f, pl, m, false)
		if err != nil {
			return Solution{}, err
		}
		costs[i], full[i] = commCost(c), c
	}
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return commForkSolution(cands[idx], full[idx], MethodHeuristic, false, cl), nil
}

// prepareCommPipeHom is the Prepare capability of the polynomial
// hom-platform comm-pipeline cells: one fullmodel.PipelinePrepared —
// its bound platform, reusable DP arrays, the candidate-period set, a
// per-goal memo — serves every objective of the family,
// byte-identical to solveCommPipeHom.
func prepareCommPipeHom(pr Problem, _ Options) *PreparedCell {
	pp, err := fullmodel.NewPipelinePrepared(*pr.CommPipeline, commPlatform(pr))
	if err != nil {
		return nil
	}
	solve := func(_ context.Context, pr2 Problem) (Solution, error) {
		cl := classificationOf(pr2)
		method := methodForCommPipeObjective(pr2.Objective)
		m, c, ok, err := pp.SolveHom(commGoal(pr2))
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(method, true, cl), nil
		}
		return commPipeSolution(m, c, method, true, cl), nil
	}
	return &PreparedCell{Solve: solve}
}

// prepareCommPipeHard is the Prepare capability of the NP-hard
// het-platform comm-pipeline cells: within the exhaustive limits one
// fullmodel.PipelinePrepared shares the work table, enumeration scratch
// and per-goal memo (with the optionally partitioned scan), byte-identical
// to solveCommPipeHard; beyond them the goal-independent heuristic
// candidate set and its evaluations are computed once, leaving only the
// per-goal bound check to each solve.
func prepareCommPipeHard(pr Problem, opts Options) *PreparedCell {
	p, pl := *pr.CommPipeline, commPlatform(pr)
	if commPipeInLimits(pr, opts) {
		pp, err := fullmodel.NewPipelinePrepared(p, pl)
		if err != nil {
			return nil
		}
		pp.SetParallelism(searchParallelism(opts, pr))
		solve := func(ctx context.Context, pr2 Problem) (Solution, error) {
			cl := classificationOf(pr2)
			m, c, ok, err := pp.SolveExact(ctx, commGoal(pr2))
			if err != nil {
				return Solution{}, err
			}
			if !ok {
				return infeasible(MethodExhaustive, true, cl), nil
			}
			return commPipeSolution(m, c, MethodExhaustive, true, cl), nil
		}
		return &PreparedCell{Solve: solve, SetParallelism: pp.SetParallelism}
	}
	cands := fullmodel.HeuristicCandidates(p, pl)
	costs := make([]mapping.Cost, len(cands))
	full := make([]fullmodel.Cost, len(cands))
	for i, m := range cands {
		c, err := fullmodel.Eval(p, pl, m)
		if err != nil {
			return nil
		}
		costs[i], full[i] = commCost(c), c
	}
	solve := func(_ context.Context, pr2 Problem) (Solution, error) {
		cl := classificationOf(pr2)
		idx, ok := pickBestIndex(costs, pr2)
		if !ok {
			return infeasible(MethodHeuristic, false, cl), nil
		}
		m := fullmodel.Mapping{
			Bounds: append([]int(nil), cands[idx].Bounds...),
			Alloc:  append([]int(nil), cands[idx].Alloc...),
		}
		return commPipeSolution(m, full[idx], MethodHeuristic, false, cl), nil
	}
	return &PreparedCell{Solve: solve}
}

// prepareCommFork is the Prepare capability of the one-port fork cells:
// within the exhaustive limits one fullmodel.ForkPrepared shares the
// partition/assignment scratch, send-order buffers and per-goal memo,
// byte-identical to solveCommForkHard; beyond them the heuristic
// candidate set (each finished with its latency-optimal send order) and
// its evaluations are computed once.
func prepareCommFork(pr Problem, opts Options) *PreparedCell {
	f, pl := *pr.CommFork, commPlatform(pr)
	if commForkInLimits(pr, opts) {
		fp, err := fullmodel.NewForkPrepared(f, pl)
		if err != nil {
			return nil
		}
		solve := func(ctx context.Context, pr2 Problem) (Solution, error) {
			cl := classificationOf(pr2)
			m, c, ok, err := fp.SolveExact(ctx, commGoal(pr2))
			if err != nil {
				return Solution{}, err
			}
			if !ok {
				return infeasible(MethodExhaustive, true, cl), nil
			}
			return commForkSolution(m, c, MethodExhaustive, true, cl), nil
		}
		return &PreparedCell{Solve: solve}
	}
	cands := fullmodel.ForkHeuristicCandidates(f, pl)
	costs := make([]mapping.Cost, len(cands))
	full := make([]fullmodel.Cost, len(cands))
	for i, m := range cands {
		c, err := fullmodel.EvalFork(f, pl, m, false)
		if err != nil {
			return nil
		}
		costs[i], full[i] = commCost(c), c
	}
	solve := func(_ context.Context, pr2 Problem) (Solution, error) {
		cl := classificationOf(pr2)
		idx, ok := pickBestIndex(costs, pr2)
		if !ok {
			return infeasible(MethodHeuristic, false, cl), nil
		}
		return commForkSolution(cloneCommForkMapping(cands[idx]), full[idx], MethodHeuristic, false, cl), nil
	}
	return &PreparedCell{Solve: solve}
}

// cloneCommForkMapping deep-copies a fork mapping so prepared solves
// never hand out aliases of the cached candidate set. Nil-ness of every
// slice is preserved so clones stay deep-equal to the one-shot results.
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
