package anytime

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Exact is the outcome of an exact portfolio member (Config.Exact):
// either an optimal mapping of the instance's kind (a fork's is its
// joinless fork-join mapping), or a proof that no mapping satisfies the
// spec's bounds (Feasible == false).
type Exact struct {
	Pipeline *mapping.PipelineMapping
	ForkJoin *mapping.ForkJoinMapping

	Cost     mapping.Cost
	Feasible bool
}

// Config tunes a portfolio run. The zero value is usable.
type Config struct {
	// Workers is the number of concurrent search members (one greedy
	// hill-climber plus Workers-1 annealers); <= 0 selects 3.
	Workers int
	// Seed is the base of the deterministic RNG streams: member i draws
	// from Seed+i. Two runs with equal seeds explore identical move
	// sequences per member (the shared incumbent still depends on
	// scheduling when members race).
	Seed int64
	// MaxIterations caps each member's mutation count; 0 means no cap
	// (the deadline and StallIterations govern termination).
	MaxIterations uint64
	// StallIterations is the per-member restart window: after this many
	// candidates without improving the shared incumbent the member
	// restarts from the incumbent, and gives up after a few fruitless
	// restarts; 0 selects 20000.
	StallIterations uint64
	// Exact, when non-nil, runs as one more member (typically a closure
	// over internal/exhaustive). Its completion certifies the result:
	// the incumbent becomes the proven optimum (or proven infeasible)
	// and the remaining members are cancelled.
	Exact func(ctx context.Context) (Exact, error)
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.StallIterations == 0 {
		c.StallIterations = 20000
	}
	return c
}

// Result is the outcome of a portfolio run: the best mapping found (of
// the instance's kind; a fork's is joinless, see SolveForkJoin), its
// cost, and the certified quality statement.
type Result struct {
	Pipeline *mapping.PipelineMapping
	ForkJoin *mapping.ForkJoinMapping

	Cost mapping.Cost
	// Feasible is false when no mapping honouring the spec's bounds was
	// found; for Optimal results that is a proof of infeasibility,
	// otherwise a possibly-false negative.
	Feasible bool
	// Optimal reports a certified optimum: the exact member finished,
	// or the incumbent reached the lower bound.
	Optimal bool
	// LowerBound is the instance's lower bound on the optimized
	// criterion (PipelineLB or ForkJoinLB).
	LowerBound float64
	// Gap is the certified relative optimality gap,
	// objective/LowerBound - 1, and 0 for proven optima. The true
	// optimum lies within [objective/(1+Gap), objective].
	Gap float64
	// Iterations is the total number of candidate mappings evaluated
	// by the annealing members.
	Iterations uint64
}

// run is the kind-generic portfolio loop. seeds are candidate mappings
// (invalid ones are skipped); eval returns a candidate's cost (false =
// structurally invalid); mutate returns a fresh mutated copy and must
// not modify its argument; fromExact projects an Exact onto M.
func run[M any](
	ctx context.Context, spec Spec, cfg Config, lb float64,
	seeds []M,
	eval func(M) (mapping.Cost, bool),
	mutate func(*rand.Rand, M) M,
	fromExact func(Exact) M,
) (m M, c mapping.Cost, res Result, err error) {
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		// Cancelled caller: abort. An already-expired deadline (a
		// minimal budget on a loaded host) is different — the seeds
		// below still yield the promised incumbent.
		return m, c, Result{}, err
	}
	cfg = cfg.normalized()
	res.LowerBound = lb

	inc := &incumbent.Best[M]{}
	for _, s := range seeds {
		if sc, ok := eval(s); ok {
			inc.Offer(spec, s, sc)
		}
	}

	var iters atomic.Uint64
	var optimal atomic.Bool
	var provenInfeasible atomic.Bool

	if ctx.Err() == nil {
		runCtx, cancelRun := context.WithCancel(ctx)
		defer cancelRun()
		certify := func() {
			optimal.Store(true)
			cancelRun()
		}

		// Already at the bound? No search needed.
		if _, bc, ok := inc.Snapshot(); ok && numeric.LessEq(spec.Objective(bc), lb) {
			certify()
		}

		// A member's panic stops the run and is re-raised on the
		// caller's goroutine once every member has returned, as
		// incumbent.Each does for its workers: unrecovered on a member's
		// goroutine it would end the process.
		panics := make([]*incumbent.WorkerPanic, cfg.Workers+1)
		guard := func(member int) {
			if r := recover(); r != nil {
				panics[member] = incumbent.AsWorkerPanic(r)
				cancelRun()
			}
		}
		var wg sync.WaitGroup
		if cfg.Exact != nil && !optimal.Load() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer guard(cfg.Workers)
				ex, err := cfg.Exact(runCtx)
				if err != nil {
					return // cancelled or failed: the incumbent stands uncertified
				}
				if ex.Feasible {
					inc.Adopt(spec, fromExact(ex), ex.Cost)
				} else {
					provenInfeasible.Store(true)
				}
				certify()
			}()
		}
		for w := 0; w < cfg.Workers && !optimal.Load(); w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer guard(id)
				anneal(runCtx, spec, cfg, lb, id, inc, &iters, certify, seeds, eval, mutate)
			}(w)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	} else if _, bc, ok := inc.Snapshot(); ok && numeric.LessEq(spec.Objective(bc), lb) {
		optimal.Store(true) // a seed already proves the bound
	}

	res.Iterations = iters.Load()
	bm, bc, found := inc.Snapshot()
	if !found {
		// No feasible mapping surfaced: an infeasible verdict, exact
		// when the exact member proved it.
		res.Optimal = provenInfeasible.Load()
		return m, c, res, nil
	}
	res.Feasible = true
	obj := spec.Objective(bc)
	res.Gap = math.Max(0, obj/lb-1)
	if optimal.Load() && !provenInfeasible.Load() || numeric.LessEq(obj, lb) {
		res.Optimal = true
		res.Gap = 0
	}
	return bm, bc, res, nil
}

// anneal is one search member: member 0 is a greedy hill-climber
// (temperature 0), the rest are simulated annealers with geometric
// cooling and reheat cycles. All members share the incumbent and
// restart from it on stall.
func anneal[M any](
	ctx context.Context, spec Spec, cfg Config, lb float64, id int,
	inc *incumbent.Best[M], iters *atomic.Uint64, certify func(),
	seeds []M,
	eval func(M) (mapping.Cost, bool),
	mutate func(*rand.Rand, M) M,
) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	energy := func(c mapping.Cost) float64 {
		e := spec.Objective(c)
		// Bound violations are penalized proportionally to the lower
		// bound so infeasible states rank below typical feasible ones
		// while keeping a gradient toward feasibility.
		if spec.PeriodBound > 0 && c.Period > spec.PeriodBound {
			e += lb * (4 + 8*(c.Period/spec.PeriodBound-1))
		}
		if spec.LatencyBound > 0 && c.Latency > spec.LatencyBound {
			e += lb * (4 + 8*(c.Latency/spec.LatencyBound-1))
		}
		return e
	}

	// Start from the incumbent when one exists, else from this member's
	// seed (members spread over the seed list).
	start := func() (M, float64, bool) {
		if m, c, ok := inc.Snapshot(); ok {
			return m, energy(c), true
		}
		for off := 0; off < len(seeds); off++ {
			s := seeds[(id+off)%len(seeds)]
			if c, ok := eval(s); ok {
				return s, energy(c), true
			}
		}
		var zero M
		return zero, 0, false
	}
	cur, curE, ok := start()
	if !ok {
		return // no valid starting point of this kind
	}

	t0 := math.Max(curE, lb) * 0.2
	temp := t0
	if id == 0 {
		temp = 0 // hill-climber
	}
	var stalled uint64
	restarts := 0
	for it := uint64(0); cfg.MaxIterations == 0 || it < cfg.MaxIterations; it++ {
		if it&63 == 0 && ctx.Err() != nil {
			return
		}
		iters.Add(1)
		cand := mutate(rng, cur)
		c, valid := eval(cand)
		if !valid {
			stalled++
			continue
		}
		e := energy(c)
		if e <= curE || (temp > 0 && rng.Float64() < math.Exp((curE-e)/temp)) {
			cur, curE = cand, e
		}
		if inc.Offer(spec, cand, c) {
			stalled = 0
			if numeric.LessEq(spec.Objective(c), lb) {
				certify() // reached the lower bound: proven optimal
				return
			}
		} else {
			stalled++
		}
		if id != 0 {
			temp *= 0.999
			if temp < t0*0.01 {
				temp = t0 // reheat
			}
		}
		if stalled >= cfg.StallIterations {
			restarts++
			if restarts > 2 {
				return
			}
			if m, c, ok := inc.Snapshot(); ok {
				cur, curE = m, energy(c)
			}
			temp = t0
			stalled = 0
		}
	}
}

// SolvePipeline runs the portfolio on a pipeline instance.
func SolvePipeline(ctx context.Context, p workflow.Pipeline, pl platform.Platform, spec Spec, seeds []mapping.PipelineMapping, cfg Config) (Result, error) {
	lb := PipelineLB(p, pl, spec)
	eval := func(m mapping.PipelineMapping) (mapping.Cost, bool) {
		c, err := mapping.EvalPipeline(p, pl, m)
		return c, err == nil
	}
	mutate := pipelineMutator(pl, spec.AllowDP)
	m, c, res, err := run(ctx, spec, cfg, lb, seeds, eval, mutate,
		func(ex Exact) mapping.PipelineMapping { return *ex.Pipeline })
	if err != nil || !res.Feasible {
		return res, err
	}
	res.Pipeline, res.Cost = &m, c
	return res, nil
}

// SolveForkJoin runs the portfolio on a fork-join instance, or on a fork
// as a fork-join without a join (join false, fj.Join 0): its seeds and
// result set no Join flag.
func SolveForkJoin(ctx context.Context, fj workflow.ForkJoin, join bool, pl platform.Platform, spec Spec, seeds []mapping.ForkJoinMapping, cfg Config) (Result, error) {
	m, c, res, err := run(ctx, spec, cfg, ForkJoinLB(fj, pl, spec), seeds, forkJoinEval(fj, join, pl),
		forkJoinMutator(pl, join, spec.AllowDP), func(ex Exact) mapping.ForkJoinMapping { return *ex.ForkJoin })
	if err != nil || !res.Feasible {
		return res, err
	}
	res.ForkJoin, res.Cost = &m, c
	return res, nil
}

// forkJoinEval returns the cost of a fork-join candidate. Without a join
// it is the fork's cost, EvalFork's on m.Fork() (see EvalForkGraph).
func forkJoinEval(fj workflow.ForkJoin, join bool, pl platform.Platform) func(mapping.ForkJoinMapping) (mapping.Cost, bool) {
	return func(m mapping.ForkJoinMapping) (mapping.Cost, bool) {
		c, err := mapping.EvalForkGraph(fj, join, pl, m)
		return c, err == nil
	}
}
