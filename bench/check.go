package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/instance"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/server"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// resolveEvery is the sampling rate of kept responses re-solved in
// process with core.SolveContext.
const resolveEvery = 50

// checkSolveBody decodes a /v1/solve response and checks it against the
// instance: the right cell, a feasible exact-when-promised solution, and
// a period and latency equal to the ones recomputed from the mapping.
func checkSolveBody(pr core.Problem, body []byte) (core.Solution, error) {
	var resp server.SolveResponse
	if err := instance.DecodeStrict(bytes.NewReader(body), &resp); err != nil {
		return core.Solution{}, fmt.Errorf("decoding solve response: %w", err)
	}
	if want := core.CellKeyOf(pr).String(); resp.Cell != want {
		return core.Solution{}, fmt.Errorf("cell %q, want %q", resp.Cell, want)
	}
	return checkSolution(pr, resp.Solution)
}

// checkSolution checks one wire solution of pr: feasible, exact (every
// workload instance is solved exactly), and costed as its mapping.
func checkSolution(pr core.Problem, sj instance.SolutionJSON) (core.Solution, error) {
	sol, err := sj.Solution()
	if err != nil {
		return core.Solution{}, err
	}
	if !sol.Feasible || !sol.Exact {
		return core.Solution{}, fmt.Errorf("solution feasible=%v exact=%v, want both", sol.Feasible, sol.Exact)
	}
	c, err := evalMapping(pr, sol)
	if err != nil {
		return core.Solution{}, fmt.Errorf("evaluating the returned mapping: %w", err)
	}
	if !numeric.Eq(c.Period, sol.Cost.Period) || !numeric.Eq(c.Latency, sol.Cost.Latency) {
		return core.Solution{}, fmt.Errorf("reported %v, mapping costs %v", sol.Cost, c)
	}
	return sol, nil
}

// evalMapping recomputes the period and latency of a solution's mapping
// with the cost model of the instance's kind.
func evalMapping(pr core.Problem, sol core.Solution) (mapping.Cost, error) {
	switch {
	case pr.Pipeline != nil && sol.PipelineMapping != nil:
		return mapping.EvalPipeline(*pr.Pipeline, pr.Platform, *sol.PipelineMapping)
	case pr.Fork != nil && sol.ForkMapping != nil:
		return mapping.EvalFork(*pr.Fork, pr.Platform, *sol.ForkMapping)
	case pr.ForkJoin != nil && sol.ForkJoinMapping != nil:
		return mapping.EvalForkJoin(*pr.ForkJoin, pr.Platform, *sol.ForkJoinMapping)
	case pr.SP != nil && sol.SPMapping != nil:
		return evalSP(*pr.SP, pr, *sol.SPMapping)
	case pr.CommPipeline != nil && sol.CommPipelineMapping != nil:
		c, err := fullmodel.Eval(*pr.CommPipeline, pr.Bandwidth.Apply(pr.Platform.Speeds), *sol.CommPipelineMapping)
		return mapping.Cost{Period: c.Period, Latency: c.Latency}, err
	case pr.CommFork != nil && sol.CommForkMapping != nil:
		c, err := fullmodel.EvalFork(*pr.CommFork, pr.Bandwidth.Apply(pr.Platform.Speeds), *sol.CommForkMapping, false)
		return mapping.Cost{Period: c.Period, Latency: c.Latency}, err
	}
	return mapping.Cost{}, errors.New("the mapping does not match the instance's kind")
}

// evalSP costs an irreducible SP mapping in the block model, and a
// reduced one as the legacy mapping of the reduced graph.
func evalSP(g workflow.SP, pr core.Problem, m mapping.SPMapping) (mapping.Cost, error) {
	if m.Reduced == workflow.KindSP {
		return spdecomp.Eval(g, pr.Platform, m.Blocks)
	}
	red, ok := spdecomp.Reduce(g)
	if !ok || red.Kind != m.Reduced || !slices.Equal(red.Order, m.Order) {
		return mapping.Cost{}, fmt.Errorf("mapping reduced to %v with order %v, the graph does not", m.Reduced, m.Order)
	}
	switch {
	case red.Pipeline != nil && m.Pipeline != nil:
		return mapping.EvalPipeline(*red.Pipeline, pr.Platform, *m.Pipeline)
	case red.Fork != nil && m.Fork != nil:
		return mapping.EvalFork(*red.Fork, pr.Platform, *m.Fork)
	case red.ForkJoin != nil && m.ForkJoin != nil:
		return mapping.EvalForkJoin(*red.ForkJoin, pr.Platform, *m.ForkJoin)
	}
	return mapping.Cost{}, errors.New("reduced SP mapping without the reduced shape's mapping")
}

// resolveSolve re-solves pr in process and requires the served cost.
func resolveSolve(pr core.Problem, served core.Solution) error {
	sol, err := core.SolveContext(context.Background(), pr, core.Options{})
	if err != nil {
		return fmt.Errorf("re-solving: %w", err)
	}
	if sol.Cost != served.Cost {
		return fmt.Errorf("served %v, in-process solve %v", served.Cost, sol.Cost)
	}
	return nil
}

// parseSweep splits a /v1/pareto stream into its front points and its
// terminal status line.
func parseSweep(body []byte) ([]instance.SolutionJSON, server.StreamStatus, error) {
	var points []instance.SolutionJSON
	var term server.StreamStatus
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		if bytes.HasPrefix(line, statusPrefix) {
			if err := instance.DecodeStrict(bytes.NewReader(line), &term); err != nil {
				return nil, term, fmt.Errorf("decoding status line: %w", err)
			}
			if term.Status != server.StreamStatusHeartbeat && i != len(lines)-1 {
				return nil, term, fmt.Errorf("terminal status line %d of %d", i+1, len(lines))
			}
			continue
		}
		var sj instance.SolutionJSON
		if err := instance.DecodeStrict(bytes.NewReader(line), &sj); err != nil {
			return nil, term, fmt.Errorf("decoding front point: %w", err)
		}
		points = append(points, sj)
	}
	return points, term, nil
}

// checkSweepBody checks a /v1/pareto stream: a complete sweep whose
// points are each costed as their mapping and strictly trade period for
// latency.
func checkSweepBody(pr core.Problem, body []byte) ([]core.Solution, error) {
	points, term, err := parseSweep(body)
	if err != nil {
		return nil, err
	}
	if term.Status != server.StreamStatusComplete || term.Points != len(points) || len(points) == 0 {
		return nil, fmt.Errorf("terminal status %q with %d points, got %d point lines", term.Status, term.Points, len(points))
	}
	front := make([]core.Solution, len(points))
	for i, sj := range points {
		if front[i], err = checkSolution(pr, sj); err != nil {
			return nil, fmt.Errorf("front point %d: %w", i, err)
		}
		if i > 0 && !(numeric.Greater(front[i].Cost.Period, front[i-1].Cost.Period) &&
			numeric.Less(front[i].Cost.Latency, front[i-1].Cost.Latency)) {
			return nil, fmt.Errorf("front point %d %v does not trade off against point %d %v", i, front[i].Cost, i-1, front[i-1].Cost)
		}
	}
	return front, nil
}

// resolveSweep re-solves each front point in process as the two bounded
// objectives through it: the least latency within its period, and the
// least period within its latency, must both land on the point.
func resolveSweep(pr core.Problem, front []core.Solution) error {
	ctx := context.Background()
	for i, pt := range front {
		lup, pul := pr, pr
		lup.Objective, lup.Bound = core.LatencyUnderPeriod, pt.Cost.Period
		pul.Objective, pul.Bound = core.PeriodUnderLatency, pt.Cost.Latency
		a, err := core.SolveContext(ctx, lup, core.Options{})
		if err != nil {
			return fmt.Errorf("re-solving point %d: %w", i, err)
		}
		b, err := core.SolveContext(ctx, pul, core.Options{})
		if err != nil {
			return fmt.Errorf("re-solving point %d: %w", i, err)
		}
		if !numeric.Eq(a.Cost.Latency, pt.Cost.Latency) || !numeric.Eq(b.Cost.Period, pt.Cost.Period) {
			return fmt.Errorf("front point %d %v: least latency within its period %v, least period within its latency %v",
				i, pt.Cost, a.Cost.Latency, b.Cost.Period)
		}
	}
	return nil
}

// outcome totals the output checks of one run.
type outcome struct {
	checked, resolved, failed int
	errs                      []error
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 3 {
		o.errs = append(o.errs, err)
	}
}

// checkKept decodes every kept response of the measured phase and checks
// it, re-solving a seeded 1-in-resolveEvery sample in process.
func checkKept(w *workload, l load, bodies [][]byte, pick func() bool) outcome {
	var o outcome
	for i, body := range bodies {
		if body == nil {
			continue
		}
		pr := l.reqs[i].pr
		o.checked++
		resolve := pick()
		var err error
		if w.path == "/v1/pareto" {
			var front []core.Solution
			if front, err = checkSweepBody(pr, body); err == nil && resolve {
				o.resolved++
				err = resolveSweep(pr, front)
			}
		} else {
			var sol core.Solution
			if sol, err = checkSolveBody(pr, body); err == nil && resolve {
				o.resolved++
				err = resolveSolve(pr, sol)
			}
		}
		if err != nil {
			o.fail(fmt.Errorf("request %d (%s): %w", i, l.reqs[i].kind, err))
		}
	}
	return o
}
