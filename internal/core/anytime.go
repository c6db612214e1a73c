package core

import (
	"context"
	"errors"

	"repliflow/internal/anytime"
)

// This file wires the internal/anytime portfolio into dispatch. Every
// NP-hard cell of a kind whose spec advertises the Anytime capability
// dispatches to it when Options.AnytimeBudget is set (see
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

// solveAnytime is the Anytime capability of the kinds with a portfolio:
// the kind's heuristic seeds and annealers race its exact solver, built
// inside the limits, until the budget or the caller's deadline expires.
// Answers cross the portfolio in the kind's own terms (hardKind.solution).
func (k *hardKind) solveAnytime(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	cfg := anytime.Config{Seed: anytimeSeedBase(pr)}
	if k.inLimits(pr, opts) {
		cfg.Exact = func(ctx context.Context) (anytime.Exact, error) {
			sol, ok, err := k.exactOnce(ctx, pr)
			return anytime.Exact{Pipeline: sol.PipelineMapping, ForkJoin: sol.ForkJoinMapping, Cost: sol.Cost, Feasible: ok}, err
		}
	}
	bctx, cancel := context.WithTimeout(ctx, opts.AnytimeBudget)
	defer cancel()
	res, err := k.portfolio(bctx, pr, cfg)
	if err != nil {
		return Solution{}, err
	}
	// A cancelled caller aborts (the result must not be trusted or
	// cached); a caller deadline that fired mid-run still returns the
	// incumbent — that is the point of anytime solving — unless nothing
	// feasible was found.
	if cerr := ctx.Err(); cerr != nil && (errors.Is(cerr, context.Canceled) || !res.Feasible && !res.Optimal) {
		return Solution{}, cerr
	}
	sol := k.answer(pr, Solution{PipelineMapping: res.Pipeline, ForkJoinMapping: res.ForkJoin, Cost: res.Cost}, res.Feasible)
	sol.Method, sol.Exact, sol.Feasible, sol.Classification = MethodAnytime, res.Optimal, res.Feasible, classificationOf(pr)
	sol.Anytime, sol.Gap, sol.LowerBound, sol.Iterations = true, res.Gap, res.LowerBound, res.Iterations
	return sol, nil
}
