package core

import (
	"context"

	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
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
		ExactlySolvable: func(pr Problem, opts Options) bool {
			return pr.Fork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
				pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
		},
		// Preparable mirrors prepareForkHard's gate: only the in-limit
		// exhaustive path shares state worth preparing.
		Preparable: func(pr Problem, opts Options) bool {
			return pr.Fork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
				pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
		},
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.Fork.Leaves()+1 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		CandidatePeriods: forkCandidatePeriods,
		Anytime:          solveForkAnytime,
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
		ExactlySolvable: func(pr Problem, opts Options) bool {
			return pr.ForkJoin.Leaves()+2 <= opts.MaxExhaustiveForkStages &&
				pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
		},
		// Preparable mirrors prepareForkJoinHard's gate.
		Preparable: func(pr Problem, opts Options) bool {
			return pr.ForkJoin.Leaves()+2 <= opts.MaxExhaustiveForkStages &&
				pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
		},
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.ForkJoin.Leaves()+2 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		CandidatePeriods: forkJoinCandidatePeriods,
		Anytime:          solveForkJoinAnytime,
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
		periodSolver, t11, t14, hard := solveForkHomPeriod, solveForkTheorem11, solveForkTheorem14, solveForkHard
		prepare := prepareForkHard
		if kind == workflow.KindForkJoin {
			periodSolver, t11, t14, hard = solveForkJoinHomPeriod, solveForkJoinTheorem11, solveForkJoinTheorem14, solveForkJoinHard
			prepare = prepareForkJoinHard
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
					SolverEntry{MethodExhaustive, true, "Theorem 12", hard, prepare, nil})
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
				SolverEntry{MethodExhaustive, true, source, hard, prepare, nil})
			for _, gh := range bools {
				register(CellKey{kind, false, gh, true, obj},
					SolverEntry{MethodExhaustive, true, "Theorem 13", hard, prepare, nil})
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

// solveForkHard handles the NP-hard fork cells: exact set-partition search
// (with cancellation checkpoints) within the exhaustive limits, polynomial
// heuristics polished by hill climbing beyond them.
func solveForkHard(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	f := *pr.Fork
	pl := pr.Platform
	cl := classificationOf(pr)
	if f.Leaves()+1 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		res, ok, err := exhaustiveFork(ctx, pr, searchParallelism(opts, pr))
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl), nil
	}
	maps, costs := forkHeuristicCandidates(pr)
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	best, bestCost := maps[idx], costs[idx]
	// Polish with hill climbing on the optimized criterion, keeping the
	// result only if it still honours the bound.
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
	return forkSolution(best, bestCost, MethodHeuristic, false, cl), nil
}

// exhaustiveFork runs the exact set-partition search matching pr's
// objective — shared by the unbudgeted exact path and the anytime
// portfolio's exact member. par is the resolved worker count of the
// sharded scan (<= 1 serial); it never changes the result.
func exhaustiveFork(ctx context.Context, pr Problem, par int) (exhaustive.ForkResult, bool, error) {
	fp := exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(par)
	return preparedDispatch[exhaustive.ForkResult](ctx, fp, pr)
}

// exhaustiveForkJoin is exhaustiveFork for fork-join graphs.
func exhaustiveForkJoin(ctx context.Context, pr Problem, par int) (exhaustive.ForkJoinResult, bool, error) {
	fp := exhaustive.NewForkJoinPrepared(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(par)
	return preparedDispatch[exhaustive.ForkJoinResult](ctx, fp, pr)
}

// forkHeuristicCandidates returns the polynomial heuristic mappings of
// an NP-hard fork instance (with their costs, aligned by index): the
// candidate pool of both the heuristic fallback path and the anytime
// portfolio's seeds.
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

func solveForkJoinHard(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	fj := *pr.ForkJoin
	pl := pr.Platform
	cl := classificationOf(pr)
	if fj.Leaves()+2 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		res, ok, err := exhaustiveForkJoin(ctx, pr, searchParallelism(opts, pr))
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl), nil
	}
	maps, costs := forkJoinHeuristicCandidates(pr)
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return forkJoinSolution(maps[idx], costs[idx], MethodHeuristic, false, cl), nil
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

// prepareForkHard is the registry Prepare capability of the NP-hard fork
// cells: within the exhaustive limits it shares one
// exhaustive.ForkPrepared — enumeration scratch, anytime bounds,
// per-bound memo — across every solve of the family, byte-identical to
// solveForkHard. Outside the limits it returns nil.
func prepareForkHard(pr Problem, opts Options) *PreparedCell {
	if pr.Fork.Leaves()+1 > opts.MaxExhaustiveForkStages || pr.Platform.Processors() > opts.MaxExhaustiveForkProcs {
		return nil
	}
	fp := exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(searchParallelism(opts, pr))
	solve := func(ctx context.Context, pr Problem) (Solution, error) {
		res, ok, err := preparedDispatch[exhaustive.ForkResult](ctx, fp, pr)
		if err != nil {
			return Solution{}, err
		}
		cl := classificationOf(pr)
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return forkSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl), nil
	}
	return &PreparedCell{Solve: solve, SetParallelism: fp.SetParallelism}
}

// prepareForkJoinHard is prepareForkHard for fork-join graphs.
func prepareForkJoinHard(pr Problem, opts Options) *PreparedCell {
	if pr.ForkJoin.Leaves()+2 > opts.MaxExhaustiveForkStages || pr.Platform.Processors() > opts.MaxExhaustiveForkProcs {
		return nil
	}
	fp := exhaustive.NewForkJoinPrepared(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(searchParallelism(opts, pr))
	solve := func(ctx context.Context, pr Problem) (Solution, error) {
		res, ok, err := preparedDispatch[exhaustive.ForkJoinResult](ctx, fp, pr)
		if err != nil {
			return Solution{}, err
		}
		cl := classificationOf(pr)
		if !ok {
			return infeasible(MethodExhaustive, true, cl), nil
		}
		return forkJoinSolution(res.Mapping, res.Cost, MethodExhaustive, true, cl), nil
	}
	return &PreparedCell{Solve: solve, SetParallelism: fp.SetParallelism}
}
