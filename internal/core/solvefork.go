package core

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/workflow"
)

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

// wholeForkOnProcessor maps the entire fork onto the single processor q.
func wholeForkOnProcessor(f workflow.Fork, q int) mapping.ForkMapping {
	leaves := make([]int, f.Leaves())
	for i := range leaves {
		leaves[i] = i
	}
	return mapping.ForkMapping{Blocks: []mapping.ForkBlock{
		mapping.NewForkBlock(true, leaves, mapping.Replicated, q),
	}}
}

// wholeForkJoinOnProcessor maps the entire fork-join onto processor q.
func wholeForkJoinOnProcessor(fj workflow.ForkJoin, q int) mapping.ForkJoinMapping {
	leaves := make([]int, fj.Leaves())
	for i := range leaves {
		leaves[i] = i
	}
	return mapping.ForkJoinMapping{Blocks: []mapping.ForkJoinBlock{
		mapping.NewForkJoinBlock(true, true, leaves, mapping.Replicated, q),
	}}
}

// registerForkSolvers populates the registry with the fork and fork-join
// columns of Table 1; fork-joins classify exactly as forks (Section 6.3),
// so both kinds share the registration structure with kind-specific solver
// funcs.
func init() {
	bools := []bool{false, true}
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}

	registerKind(KindSpec{
		Kind:             workflow.KindFork,
		Name:             workflow.KindFork.String(),
		HasGraph:         func(pr Problem) bool { return pr.Fork != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Fork.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Fork.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  forkKind.inLimits,
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.Fork.Leaves()+1 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		Anytime: forkKind.solveAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			mix(pr.Fork.Root)
			for _, w := range pr.Fork.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloat(append(b, 'F'), pr.Fork.Root)
			return fpFloats(b, pr.Fork.Weights)
		},
	})
	registerKind(KindSpec{
		Kind:             workflow.KindForkJoin,
		Name:             workflow.KindForkJoin.String(),
		HasGraph:         func(pr Problem) bool { return pr.ForkJoin != nil },
		ValidateGraph:    func(pr Problem) error { return pr.ForkJoin.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.ForkJoin.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  forkJoinKind.inLimits,
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.ForkJoin.Leaves()+2 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		Anytime: forkJoinKind.solveAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			mix(pr.ForkJoin.Root)
			mix(pr.ForkJoin.Join)
			for _, w := range pr.ForkJoin.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloat(append(b, 'J'), pr.ForkJoin.Root)
			b = fpFloat(b, pr.ForkJoin.Join)
			return fpFloats(b, pr.ForkJoin.Weights)
		},
	})
	for _, kind := range []workflow.Kind{workflow.KindFork, workflow.KindForkJoin} {
		periodSolver, t11, t14, hard := solveForkHomPeriod, solveForkTheorem11, solveForkTheorem14, &forkKind
		if kind == workflow.KindForkJoin {
			periodSolver, t11, t14, hard = solveForkJoinHomPeriod, solveForkJoinTheorem11, solveForkJoinTheorem14, &forkJoinKind
		}

		// Homogeneous platforms: period is straightforward (Theorem 10);
		// the remaining objectives are polynomial only for homogeneous
		// forks (Theorem 11) and NP-hard otherwise (Theorem 12).
		for _, gh := range bools {
			for _, dp := range bools {
				register(CellKey{kind, true, gh, dp, MinPeriod},
					SolverEntry{MethodClosedForm, true, "Theorem 10", periodSolver, nil, nil})
			}
		}
		for _, dp := range bools {
			for _, obj := range objs[1:] {
				register(CellKey{kind, true, true, dp, obj},
					SolverEntry{MethodDP, true, "Theorem 11", t11, nil, nil})
				register(CellKey{kind, true, false, dp, obj},
					SolverEntry{MethodExhaustive, true, "Theorem 12", hard.solve, hard.prepare, nil})
			}
		}

		// Heterogeneous platforms: homogeneous forks without
		// data-parallelism stay polynomial (Theorem 14); data-parallelism
		// is NP-hard (Theorem 13), and so are heterogeneous forks
		// (Theorems 12/15).
		for _, obj := range objs {
			register(CellKey{kind, false, true, false, obj},
				SolverEntry{MethodBinarySearchDP, true, "Theorem 14", t14, nil, nil})
			source := "Theorems 12/15"
			if obj == MinPeriod {
				source = "Theorem 15"
			}
			register(CellKey{kind, false, false, false, obj},
				SolverEntry{MethodExhaustive, true, source, hard.solve, hard.prepare, nil})
			for _, gh := range bools {
				register(CellKey{kind, false, gh, true, obj},
					SolverEntry{MethodExhaustive, true, "Theorem 13", hard.solve, hard.prepare, nil})
			}
		}
	}
}

// --- Fork solvers ----------------------------------------------------------

func solveForkHomPeriod(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := forkalgo.HomForkPeriod(*pr.Fork, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return forkSolution(res.Mapping, res.Cost, MethodClosedForm, true, classificationOf(pr)), nil
}

func solveForkTheorem11(_ context.Context, pr Problem, _ Options) (Solution, error) {
	f, pl, dp := *pr.Fork, pr.Platform, pr.AllowDataParallel
	cl := classificationOf(pr)
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

func solveForkTheorem14(_ context.Context, pr Problem, _ Options) (Solution, error) {
	f, pl := *pr.Fork, pr.Platform
	cl := classificationOf(pr)
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

// forkKind describes the NP-hard fork cells: the exact set-partition
// scan within the limits, polynomial heuristics polished by hill climbing
// beyond them.
var forkKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return pr.Fork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		return exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel), nil
	},
	exact: func(ctx context.Context, fp any, pr Problem) (Solution, bool, error) {
		return exhaustiveSolve(ctx, fp.(*exhaustive.ForkPrepared), pr, func(r exhaustive.ForkResult) Solution {
			return Solution{ForkMapping: &r.Mapping, Cost: r.Cost}
		})
	},
	front: func(ctx context.Context, fp any) ([]float64, error) {
		return latencies(fp.(*exhaustive.ForkPrepared).Front(ctx))
	},
	heuristic: perObjective(forkHeuristicCandidates, func(m *mapping.ForkMapping, c mapping.Cost) Solution {
		return Solution{ForkMapping: m, Cost: c}
	}),
	portfolio: func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error) {
		seeds, _ := forkHeuristicCandidates(pr)
		return anytime.SolveFork(ctx, *pr.Fork, pr.Platform, anytimeSpec(pr), seeds, cfg)
	},
}

// forkHeuristicCandidates returns the polynomial heuristic mappings of
// an NP-hard fork instance (with their costs, aligned by index): the
// candidate pool of both the heuristic fallback path and the anytime
// portfolio's seeds. The last candidate polishes the best one by hill
// climbing on the optimized criterion; coming last, it is picked only if
// it honours the bound and strictly improves.
func forkHeuristicCandidates(pr Problem) ([]mapping.ForkMapping, []mapping.Cost) {
	f, pl := *pr.Fork, pr.Platform
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
	if idx, ok := pickBestIndex(costs, pr); ok {
		obj := heuristics.ForkMinLatency
		if pr.Objective == MinPeriod || pr.Objective == PeriodUnderLatency {
			obj = heuristics.ForkMinPeriod
		}
		if m, c, err := heuristics.LocalSearchFork(f, pl, maps[idx], obj); err == nil {
			maps, costs = append(maps, m), append(costs, c)
		}
	}
	return maps, costs
}

// --- Fork-join solvers -----------------------------------------------------

func solveForkJoinHomPeriod(_ context.Context, pr Problem, _ Options) (Solution, error) {
	res, err := forkalgo.HomForkJoinPeriod(*pr.ForkJoin, pr.Platform)
	if err != nil {
		return Solution{}, err
	}
	return forkJoinSolution(res.Mapping, res.Cost, MethodClosedForm, true, classificationOf(pr)), nil
}

func solveForkJoinTheorem11(_ context.Context, pr Problem, _ Options) (Solution, error) {
	fj, pl, dp := *pr.ForkJoin, pr.Platform, pr.AllowDataParallel
	cl := classificationOf(pr)
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

func solveForkJoinTheorem14(_ context.Context, pr Problem, _ Options) (Solution, error) {
	fj, pl := *pr.ForkJoin, pr.Platform
	cl := classificationOf(pr)
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

// forkJoinKind describes the NP-hard fork-join cells: the exact scan
// within the limits, polynomial heuristics beyond them.
var forkJoinKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return pr.ForkJoin.Leaves()+2 <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		return exhaustive.NewForkJoinPrepared(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel), nil
	},
	exact: func(ctx context.Context, fp any, pr Problem) (Solution, bool, error) {
		return exhaustiveSolve(ctx, fp.(*exhaustive.ForkJoinPrepared), pr, func(r exhaustive.ForkJoinResult) Solution {
			return Solution{ForkJoinMapping: &r.Mapping, Cost: r.Cost}
		})
	},
	front: func(ctx context.Context, fp any) ([]float64, error) {
		return latencies(fp.(*exhaustive.ForkJoinPrepared).Front(ctx))
	},
	heuristic: perObjective(forkJoinHeuristicCandidates, func(m *mapping.ForkJoinMapping, c mapping.Cost) Solution {
		return Solution{ForkJoinMapping: m, Cost: c}
	}),
	portfolio: func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error) {
		seeds, _ := forkJoinHeuristicCandidates(pr)
		return anytime.SolveForkJoin(ctx, *pr.ForkJoin, pr.Platform, anytimeSpec(pr), seeds, cfg)
	},
}

// forkJoinHeuristicCandidates returns the polynomial heuristic mappings
// of an NP-hard fork-join instance (with their costs, aligned by index):
// the candidate pool of both the heuristic fallback path and the anytime
// portfolio's seeds.
func forkJoinHeuristicCandidates(pr Problem) ([]mapping.ForkJoinMapping, []mapping.Cost) {
	fj, pl := *pr.ForkJoin, pr.Platform
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
	return maps, costs
}
