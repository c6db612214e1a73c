package core

import (
	"context"

	"repliflow/internal/anytime"
	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/workflow"
)

// forkGraph returns the graph both fork kinds are solved on: pr's
// fork-join (join true), or its fork as a fork-join without a join.
func forkGraph(pr Problem) (workflow.ForkJoin, bool) {
	if pr.Fork != nil {
		return workflow.ForkJoin{Root: pr.Fork.Root, Weights: pr.Fork.Weights}, false
	}
	return *pr.ForkJoin, true
}

// forkItems is the stage count of pr's fork graph: the root, the leaves
// and the join stage, if any.
func forkItems(pr Problem) int {
	fj, join := forkGraph(pr)
	if join {
		return fj.Leaves() + 2
	}
	return fj.Leaves() + 1
}

// forkSolution is pr's Solution of an answer m on its fork graph. A
// fork's answer sets no Join flag; it becomes the fork's mapping here,
// the one place a fork answer is converted.
func forkSolution(pr Problem, m mapping.ForkJoinMapping, c mapping.Cost) Solution {
	if pr.Fork != nil {
		fm := m.Fork()
		return Solution{ForkMapping: &fm, Cost: c}
	}
	jm := m // &m would move m to the heap on a fork's path too
	return Solution{ForkJoinMapping: &jm, Cost: c}
}

// forkGoal is pr's objective as the fork algorithms take it: whether it
// minimizes the period, and its bound on the other criterion, +Inf for
// none.
func forkGoal(pr Problem) (minimizePeriod bool, bound float64) {
	if pr.Objective.Bounded() {
		return pr.Objective == PeriodUnderLatency, pr.Bound
	}
	return pr.Objective == MinPeriod, numeric.Inf
}

// forkCells is the fork column of Table 1. Fork-joins classify exactly as
// forks (Section 6.3), and every cell runs a fork as a fork-join without
// a join: one algorithm per cell serves both kinds.
var forkCells = forkColumn{
	theorem10: polyCell(PolyStraightforward, "Theorem 10", func(pr Problem) (Solution, bool, error) {
		fj, join := forkGraph(pr)
		r, err := forkalgo.Theorem10(fj, join, pr.Platform)
		return forkSolution(pr, r.Mapping, r.Cost), true, err
	}),
	theorem11: polyCell(PolyDP, "Theorem 11", func(pr Problem) (Solution, bool, error) {
		fj, join := forkGraph(pr)
		minimizePeriod, bound := forkGoal(pr)
		r, ok, err := forkalgo.Theorem11(fj, join, pr.Platform, pr.AllowDataParallel, minimizePeriod, bound)
		return forkSolution(pr, r.Mapping, r.Cost), ok, err
	}),
	theorem12: npHardCell("Theorem 12", &forkKind),
	theorem13: npHardCell("Theorem 13", &forkKind),
	theorem14: polyCell(PolyBinarySearchDP, "Theorem 14", func(pr Problem) (Solution, bool, error) {
		fj, join := forkGraph(pr)
		minimizePeriod, bound := forkGoal(pr)
		r, ok, err := forkalgo.Theorem14(fj, join, pr.Platform, minimizePeriod, bound)
		return forkSolution(pr, r.Mapping, r.Cost), ok, err
	}),
	theorem15:      npHardCell("Theorem 15", &forkKind),
	theorems12or15: npHardCell("Theorems 12/15", &forkKind),
}

// forkColumn is the fork column of Table 1.
type forkColumn struct {
	theorem10, theorem11, theorem12, theorem13, theorem14, theorem15, theorems12or15 *tableCell
}

// classify is the Classify capability of both fork kinds.
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

func init() {
	registerKind(KindSpec{
		Kind:               workflow.KindFork,
		Name:               workflow.KindFork.String(),
		HasGraph:           func(pr Problem) bool { return pr.Fork != nil },
		ValidateGraph:      func(pr Problem) error { return pr.Fork.Validate() },
		GraphHomogeneous:   func(pr Problem) bool { return pr.Fork.IsHomogeneous() },
		DataParallel:       true,
		Classify:           forkCells.classify,
		ExactlySolvable:    forkKind.inLimits,
		ParallelWorthwhile: forkParallelWorthwhile,
		Anytime:            forkKind.solveAnytime,
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
		Kind:               workflow.KindForkJoin,
		Name:               workflow.KindForkJoin.String(),
		HasGraph:           func(pr Problem) bool { return pr.ForkJoin != nil },
		ValidateGraph:      func(pr Problem) error { return pr.ForkJoin.Validate() },
		GraphHomogeneous:   func(pr Problem) bool { return pr.ForkJoin.IsHomogeneous() },
		DataParallel:       true,
		Classify:           forkCells.classify,
		ExactlySolvable:    forkKind.inLimits,
		ParallelWorthwhile: forkParallelWorthwhile,
		Anytime:            forkKind.solveAnytime,
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

// forkParallelWorthwhile is the ParallelWorthwhile capability of both
// fork kinds.
func forkParallelWorthwhile(pr Problem) bool {
	return forkItems(pr) >= parMinForkItems && pr.Platform.Processors() >= parMinForkProcs
}

// forkKind describes the NP-hard cells of both fork kinds: the exact
// set-partition scan within the limits, polynomial heuristics polished by
// hill climbing beyond them, each run on a fork as a fork-join without a
// join.
var forkKind = hardKind{
	inLimits: func(pr Problem, opts Options) bool {
		return forkItems(pr) <= opts.MaxExhaustiveForkStages &&
			pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
	},
	newExact: func(pr Problem) (any, error) {
		if pr.Fork != nil {
			return exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel), nil
		}
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
	heuristic: perObjective(forkHeuristicCandidates, func(m *mapping.ForkJoinMapping, c mapping.Cost) Solution {
		return Solution{ForkJoinMapping: m, Cost: c}
	}),
	portfolio: func(ctx context.Context, pr Problem, cfg anytime.Config) (anytime.Result, error) {
		seeds, _ := forkHeuristicCandidates(pr)
		fj, join := forkGraph(pr)
		return anytime.SolveForkJoin(ctx, fj, join, pr.Platform, anytimeSpec(pr), seeds, cfg)
	},
	solution: func(pr Problem, sol Solution) Solution {
		if pr.Fork == nil {
			return sol
		}
		return forkSolution(pr, *sol.ForkJoinMapping, sol.Cost)
	},
}

// forkHeuristicCandidates returns the polynomial heuristic mappings of an
// NP-hard fork or fork-join instance (with their costs, aligned by
// index): the candidate pool of both the heuristic fallback path and the
// anytime portfolio's seeds. Both kinds try full replication, the whole
// graph on the fastest processor and the greedy list schedule; a fork
// asks the greedy for the period under every objective. A fork also
// tries LPT on a homogeneous platform, and last polishes the best
// candidate by hill climbing on the optimized criterion; coming last, the
// polished one is picked only if it honours the bound and strictly
// improves.
func forkHeuristicCandidates(pr Problem) ([]mapping.ForkJoinMapping, []mapping.Cost) {
	fj, join := forkGraph(pr)
	pl := pr.Platform
	var maps []mapping.ForkJoinMapping
	var costs []mapping.Cost
	add := func(m mapping.ForkJoinMapping, c mapping.Cost, err error) {
		if err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	all := mapping.ReplicateAllForkJoin(fj, pl)
	all.Blocks[0].Join = join
	whole := all.Blocks[0] // the whole graph on the fastest processor
	whole.Procs = []int{pl.Fastest()}
	for _, m := range []mapping.ForkJoinMapping{all, {Blocks: []mapping.ForkJoinBlock{whole}}} {
		c, err := mapping.EvalForkGraph(fj, join, pl, m)
		add(m, c, err)
	}
	minimizePeriod, _ := forkGoal(pr)
	add(heuristics.HetForkJoinGreedy(fj, join, pl, minimizePeriod || !join))
	if join {
		return maps, costs
	}
	f := *pr.Fork
	if pl.IsHomogeneous() {
		m, c, err := heuristics.HetForkLatencyLPT(f, pl)
		add(m.ForkJoin(), c, err)
	}
	if idx, ok := pickBestIndex(costs, pr); ok {
		obj := heuristics.ForkMinLatency
		if minimizePeriod {
			obj = heuristics.ForkMinPeriod
		}
		m, c, err := heuristics.LocalSearchFork(f, pl, maps[idx].Fork(), obj)
		add(m.ForkJoin(), c, err)
	}
	return maps, costs
}
