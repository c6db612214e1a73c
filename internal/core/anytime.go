package core

import (
	"context"
	"errors"
	"time"

	"repliflow/internal/anytime"
	"repliflow/internal/heuristics"
)

// This file wires the internal/anytime portfolio into the registry.
// Every NP-hard cell of a kind whose spec advertises the Anytime
// capability dispatches to it when Options.AnytimeBudget is set (see
// SolverEntry.Anytime). The portfolio is seeded with the exact same
// heuristic candidates the legacy fallback path uses, so a budgeted
// solve can never return a worse objective than an unbudgeted heuristic
// one.

// anytimeSpec projects a problem's objective onto the portfolio's
// cost-level spec.
func anytimeSpec(pr Problem) anytime.Spec {
	spec := anytime.Spec{AllowDP: pr.AllowDataParallel}
	switch pr.Objective {
	case MinPeriod:
		spec.MinimizePeriod = true
	case MinLatency:
	case LatencyUnderPeriod:
		spec.PeriodBound = pr.Bound
	default: // PeriodUnderLatency
		spec.MinimizePeriod = true
		spec.LatencyBound = pr.Bound
	}
	return spec
}

// anytimeSeedBase derives the portfolio RNG seed from the instance so
// repeated solves of one instance explore identical member streams. The
// graph data enters through the kind's SeedMix capability.
func anytimeSeedBase(pr Problem) int64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	mix := func(v float64) {
		bits := uint64(int64(v * 4096))
		h = (h ^ bits) * 1099511628211
	}
	if spec := specOf(pr); spec != nil {
		spec.SeedMix(pr, mix)
	}
	for _, s := range pr.Platform.Speeds {
		mix(s)
	}
	return int64(h >> 1)
}

// anytimeSolution converts a portfolio result into a Solution.
func anytimeSolution(res anytime.Result, cl Classification) Solution {
	return Solution{
		PipelineMapping: res.Pipeline,
		ForkMapping:     res.Fork,
		ForkJoinMapping: res.ForkJoin,
		Cost:            res.Cost,
		Method:          MethodAnytime,
		Exact:           res.Optimal,
		Feasible:        res.Feasible,
		Classification:  cl,
		Anytime:         true,
		Gap:             res.Gap,
		LowerBound:      res.LowerBound,
		Iterations:      res.Iterations,
	}
}

// finishAnytime applies the anytime error contract after a portfolio
// run: a cancelled caller aborts (the result must not be trusted or
// cached), a caller deadline that fired mid-run still returns the
// incumbent — that is the point of anytime solving — unless nothing
// feasible was found.
func finishAnytime(ctx context.Context, res anytime.Result, cl Classification, err error) (Solution, error) {
	if err != nil {
		return Solution{}, err
	}
	if cerr := ctx.Err(); cerr != nil && (errors.Is(cerr, context.Canceled) || !res.Feasible && !res.Optimal) {
		return Solution{}, cerr
	}
	return anytimeSolution(res, cl), nil
}

// anytimeContext bounds ctx by the budget.
func anytimeContext(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, budget)
}

func solvePipelineAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	p, pl := *pr.Pipeline, pr.Platform
	cl := classificationOf(pr)
	seeds, _ := pipelineHeuristicCandidates(pr)
	cfg := anytime.Config{Seed: anytimeSeedBase(pr)}
	if pl.Processors() <= opts.MaxExhaustivePipelineProcs {
		cfg.Exact = func(ctx context.Context) (anytime.Exact, error) {
			// The portfolio already saturates cores with concurrent
			// members; its exact member stays serial.
			res, ok, err := exhaustivePipeline(ctx, pr, 1)
			if err != nil {
				return anytime.Exact{}, err
			}
			m := res.Mapping
			return anytime.Exact{Pipeline: &m, Cost: res.Cost, Feasible: ok}, nil
		}
	}
	bctx, cancel := anytimeContext(ctx, opts.AnytimeBudget)
	defer cancel()
	res, err := anytime.SolvePipeline(bctx, p, pl, anytimeSpec(pr), seeds, cfg)
	return finishAnytime(ctx, res, cl, err)
}

func solveForkAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	f, pl := *pr.Fork, pr.Platform
	cl := classificationOf(pr)
	seeds, costs := forkHeuristicCandidates(pr)
	// The legacy path polishes its pick with hill climbing; seed the
	// portfolio with the polished mapping too.
	if idx, ok := pickBestIndex(costs, pr); ok {
		obj := heuristics.ForkMinLatency
		if pr.Objective == MinPeriod || pr.Objective == PeriodUnderLatency {
			obj = heuristics.ForkMinPeriod
		}
		if m, _, err := heuristics.LocalSearchFork(f, pl, seeds[idx], obj); err == nil {
			seeds = append(seeds, m)
		}
	}
	cfg := anytime.Config{Seed: anytimeSeedBase(pr)}
	if f.Leaves()+1 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		cfg.Exact = func(ctx context.Context) (anytime.Exact, error) {
			res, ok, err := exhaustiveFork(ctx, pr, 1)
			if err != nil {
				return anytime.Exact{}, err
			}
			m := res.Mapping
			return anytime.Exact{Fork: &m, Cost: res.Cost, Feasible: ok}, nil
		}
	}
	bctx, cancel := anytimeContext(ctx, opts.AnytimeBudget)
	defer cancel()
	res, err := anytime.SolveFork(bctx, f, pl, anytimeSpec(pr), seeds, cfg)
	return finishAnytime(ctx, res, cl, err)
}

func solveForkJoinAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	fj, pl := *pr.ForkJoin, pr.Platform
	cl := classificationOf(pr)
	seeds, _ := forkJoinHeuristicCandidates(pr)
	cfg := anytime.Config{Seed: anytimeSeedBase(pr)}
	if fj.Leaves()+2 <= opts.MaxExhaustiveForkStages && pl.Processors() <= opts.MaxExhaustiveForkProcs {
		cfg.Exact = func(ctx context.Context) (anytime.Exact, error) {
			res, ok, err := exhaustiveForkJoin(ctx, pr, 1)
			if err != nil {
				return anytime.Exact{}, err
			}
			m := res.Mapping
			return anytime.Exact{ForkJoin: &m, Cost: res.Cost, Feasible: ok}, nil
		}
	}
	bctx, cancel := anytimeContext(ctx, opts.AnytimeBudget)
	defer cancel()
	res, err := anytime.SolveForkJoin(bctx, fj, pl, anytimeSpec(pr), seeds, cfg)
	return finishAnytime(ctx, res, cl, err)
}
