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

// The fork and fork-join columns of Table 1: fork-joins classify exactly
// as forks (Section 6.3), each cell backed by the kind's own algorithm.
var (
	forkCells = newForkColumn(
		func(pr Problem) (Solution, bool, error) {
			return forkRun(feasible(forkalgo.HomForkPeriod(*pr.Fork, pr.Platform)))
		},
		func(pr Problem) (Solution, bool, error) {
			f, pl, dp := *pr.Fork, pr.Platform, pr.AllowDataParallel
			switch pr.Objective {
			case MinLatency:
				return forkRun(feasible(forkalgo.HomForkLatency(f, pl, dp)))
			case LatencyUnderPeriod:
				return forkRun(forkalgo.HomForkLatencyUnderPeriod(f, pl, dp, pr.Bound))
			default:
				return forkRun(forkalgo.HomForkPeriodUnderLatency(f, pl, dp, pr.Bound))
			}
		},
		func(pr Problem) (Solution, bool, error) {
			f, pl := *pr.Fork, pr.Platform
			switch pr.Objective {
			case MinPeriod:
				return forkRun(feasible(forkalgo.HetHomForkPeriodNoDP(f, pl)))
			case MinLatency:
				return forkRun(feasible(forkalgo.HetHomForkLatencyNoDP(f, pl)))
			case LatencyUnderPeriod:
				return forkRun(forkalgo.HetHomForkLatencyUnderPeriodNoDP(f, pl, pr.Bound))
			default:
				return forkRun(forkalgo.HetHomForkPeriodUnderLatencyNoDP(f, pl, pr.Bound))
			}
		},
		&forkKind)
	forkJoinCells = newForkColumn(
		func(pr Problem) (Solution, bool, error) {
			return forkJoinRun(feasible(forkalgo.HomForkJoinPeriod(*pr.ForkJoin, pr.Platform)))
		},
		func(pr Problem) (Solution, bool, error) {
			fj, pl, dp := *pr.ForkJoin, pr.Platform, pr.AllowDataParallel
			switch pr.Objective {
			case MinLatency:
				return forkJoinRun(feasible(forkalgo.HomForkJoinLatency(fj, pl, dp)))
			case LatencyUnderPeriod:
				return forkJoinRun(forkalgo.HomForkJoinLatencyUnderPeriod(fj, pl, dp, pr.Bound))
			default:
				return forkJoinRun(forkalgo.HomForkJoinPeriodUnderLatency(fj, pl, dp, pr.Bound))
			}
		},
		func(pr Problem) (Solution, bool, error) {
			fj, pl := *pr.ForkJoin, pr.Platform
			switch pr.Objective {
			case MinPeriod:
				return forkJoinRun(feasible(forkalgo.HetHomForkJoinPeriodNoDP(fj, pl)))
			case MinLatency:
				return forkJoinRun(feasible(forkalgo.HetHomForkJoinLatencyNoDP(fj, pl)))
			case LatencyUnderPeriod:
				return forkJoinRun(forkalgo.HetHomForkJoinLatencyUnderPeriodNoDP(fj, pl, pr.Bound))
			default:
				return forkJoinRun(forkalgo.HetHomForkJoinPeriodUnderLatencyNoDP(fj, pl, pr.Bound))
			}
		},
		&forkJoinKind)
)

// forkColumn is the fork column of Table 1 for one of the two fork kinds.
type forkColumn struct {
	theorem10, theorem11, theorem12, theorem13, theorem14, theorem15, theorems12or15 *tableCell
}

// newForkColumn builds a fork column on the kind's algorithms of
// Theorems 10, 11 and 14 and its hard path.
func newForkColumn(theorem10, theorem11, theorem14 func(Problem) (Solution, bool, error), hard *hardKind) *forkColumn {
	return &forkColumn{
		theorem10:      polyCell(PolyStraightforward, "Theorem 10", theorem10),
		theorem11:      polyCell(PolyDP, "Theorem 11", theorem11),
		theorem12:      npHardCell("Theorem 12", hard),
		theorem13:      npHardCell("Theorem 13", hard),
		theorem14:      polyCell(PolyBinarySearchDP, "Theorem 14", theorem14),
		theorem15:      npHardCell("Theorem 15", hard),
		theorems12or15: npHardCell("Theorems 12/15", hard),
	}
}

// classify is the Classify capability of the column's kind.
func (c *forkColumn) classify(k CellKey) *tableCell {
	if k.PlatformHomogeneous {
		switch {
		case k.Objective == MinPeriod:
			return c.theorem10
		case k.GraphHomogeneous:
			return c.theorem11
		default:
			// Latency (and hence bi-criteria) for heterogeneous forks is
			// NP-hard even on homogeneous platforms.
			return c.theorem12
		}
	}
	switch {
	case k.DataParallel:
		return c.theorem13
	case k.GraphHomogeneous:
		return c.theorem14
	case k.Objective == MinPeriod:
		return c.theorem15
	default:
		return c.theorems12or15
	}
}

// forkRun and forkJoinRun are pipeRun for the fork algorithms.
func forkRun(r forkalgo.Result, ok bool, err error) (Solution, bool, error) {
	m := r.Mapping
	return Solution{ForkMapping: &m, Cost: r.Cost}, ok, err
}

func forkJoinRun(r forkalgo.ForkJoinResult, ok bool, err error) (Solution, bool, error) {
	m := r.Mapping
	return Solution{ForkJoinMapping: &m, Cost: r.Cost}, ok, err
}

func init() {
	registerKind(KindSpec{
		Kind:             workflow.KindFork,
		Name:             workflow.KindFork.String(),
		HasGraph:         func(pr Problem) bool { return pr.Fork != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Fork.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Fork.IsHomogeneous() },
		DataParallel:     true,
		Classify:         forkCells.classify,
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
		Classify:         forkJoinCells.classify,
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
}

// --- Fork solvers ----------------------------------------------------------

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
		return exhaustiveSolve(ctx, fp.(*exhaustive.ForkPrepared), pr, func(r exhaustive.ForkJoinResult) Solution {
			m := r.Mapping.Fork()
			return Solution{ForkMapping: &m, Cost: r.Cost}
		})
	},
	front: func(ctx context.Context, fp any) ([]float64, error) {
		return latencies(fp.(*exhaustive.ForkPrepared).Front(ctx))
	},
	heuristic: perObjective(forkHeuristicCandidates, func(m *mapping.ForkMapping, c mapping.Cost) Solution {
		return Solution{ForkMapping: m, Cost: c}
	}),
	// The portfolio runs a fork as a fork-join without a join.
	portfolio: func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error) {
		maps, _ := forkHeuristicCandidates(pr)
		seeds := make([]mapping.ForkJoinMapping, len(maps))
		for i, m := range maps {
			seeds[i] = m.ForkJoin()
		}
		fj := workflow.ForkJoin{Root: pr.Fork.Root, Weights: pr.Fork.Weights}
		return anytime.SolveForkJoin(ctx, fj, false, pr.Platform, anytimeSpec(pr), seeds, cfg)
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
		return anytime.SolveForkJoin(ctx, *pr.ForkJoin, true, pr.Platform, anytimeSpec(pr), seeds, cfg)
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
