package engine

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/mapping"
)

// Engine is a concurrent, caching batch solver. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use and its
// cache persists across calls — reuse one Engine to amortize solves over
// many batches, or use the package-level helpers for one-shot work.
type Engine struct {
	workers int
	// sem bounds the engine-wide number of concurrent core solves at
	// workers, across all concurrent SolveBatch/ParetoFront/Solve
	// callers — per-call worker pools contend here, so N concurrent
	// batches cannot oversubscribe the CPU N-fold. Slots are held only
	// around core.SolveContext, never while waiting on a cache flight,
	// so nesting (Pareto over batch over solve) cannot deadlock.
	sem chan struct{}

	mu    sync.Mutex
	cache map[string]*cacheEntry
	limit int // max cache entries; 0 = unbounded
	// resultStore is the optional second-level store consulted on cache
	// misses of NP-hard cells (SetResultStore); nil disables it.
	resultStore ResultStore

	hits   atomic.Uint64
	misses atomic.Uint64
	// candidateSets counts the candidate-period sets the engine's sweeps
	// have built (sweeper.candidates), for the tests that pin which
	// sweeps build one.
	candidateSets atomic.Int64

	panicMu sync.Mutex
	panics  map[string]uint64 // recovered solver panics by dispatch cell
}

// cacheEntry is a single-flight slot: the first goroutine to claim a
// fingerprint computes the solution, every later one waits on done.
type cacheEntry struct {
	done chan struct{}
	sol  core.Solution
	err  error
	// truncated marks an anytime flight cut short by the computing
	// caller's deadline rather than its budget: a correct answer for
	// that caller, but under-budget quality for the fingerprint, so it
	// is neither cached nor adopted by waiters.
	truncated bool
	// used is set on every cache hit and cleared by the eviction scan:
	// the second-chance bit that keeps hot fingerprints alive across an
	// eviction cycle.
	used atomic.Bool
}

// New returns an Engine running at most workers concurrent solves;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   make(map[string]*cacheEntry),
	}
}

// Workers returns the concurrency limit of the engine.
func (e *Engine) Workers() int { return e.workers }

// SetCacheLimit bounds the cache at n entries; n <= 0 means unbounded
// (the default). When an insert would exceed the bound a sampled
// fraction of the completed entries is evicted — roughly half, with a
// second-chance bit sparing every fingerprint hit since the previous
// eviction — so hot keys survive an eviction cycle instead of the whole
// cache cold-starting at once (the stampede a full-map drop causes under
// load). In-flight solves are never evicted: their waiters stay
// coalesced and their results land in the live map.
func (e *Engine) SetCacheLimit(n int) {
	e.mu.Lock()
	e.limit = n
	e.mu.Unlock()
}

// CacheStats returns the cumulative cache hit and miss counts.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Stats is a point-in-time snapshot of an Engine's counters, taken with
// Engine.Stats. Hits counts solves answered from the memoization cache
// (including waiters coalesced onto an in-flight computation), Misses
// counts solves that ran core.SolveContext, and Size is the number of
// completed solutions currently cached.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Size    int
	Workers int
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the engine's cache counters. The snapshot
// is not atomic across fields: under concurrent solves the hit and miss
// counts may be skewed by in-flight operations, which is harmless for
// the monitoring use it serves (the /metrics endpoint of cmd/wfserve).
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:    e.hits.Load(),
		Misses:  e.misses.Load(),
		Size:    e.CacheSize(),
		Workers: e.workers,
	}
}

// CacheSize returns the number of cached solutions.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Reset drops every cached solution (in-flight solves are unaffected:
// their entries were claimed before the reset and complete normally).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.cache = make(map[string]*cacheEntry)
	e.mu.Unlock()
}

// coreSolveFunc is the signature of core.SolveContext; prepared-solver
// pools substitute byte-identical implementations on the cache-miss path.
type coreSolveFunc func(ctx context.Context, pr core.Problem, opts core.Options) (core.Solution, error)

// Solve solves one problem through the cache: a repeated instance returns
// the memoized solution without re-solving, and concurrent solves of the
// same instance share one computation (single flight). A failed flight is
// never cached, and its error is never adopted by waiters whose own
// context is still live — they retry the solve themselves, so one
// caller's cancellation cannot spuriously abort an unrelated caller.
func (e *Engine) Solve(ctx context.Context, pr core.Problem, opts core.Options) (core.Solution, error) {
	return e.solveVia(ctx, pr, opts, nil)
}

// solveVia is Solve with an optional solver override for the cache-miss
// path. via must be byte-identical to core.SolveContext on the problems it
// receives (the prepared-solver contract), so cached solutions stay
// indistinguishable regardless of which path computed them; nil selects
// core.SolveContext.
func (e *Engine) solveVia(ctx context.Context, pr core.Problem, opts core.Options, via coreSolveFunc) (core.Solution, error) {
	if err := pr.Validate(); err != nil {
		return core.Solution{}, err
	}
	key := Fingerprint(pr, opts)
	for {
		e.mu.Lock()
		en, ok := e.cache[key]
		if ok {
			e.mu.Unlock()
			select {
			case <-en.done:
				if en.err == nil && !en.truncated {
					e.hits.Add(1)
					en.used.Store(true)
					return cloneSolution(en.sol), nil
				}
				if err := ctx.Err(); err != nil {
					return core.Solution{}, err
				}
				// The flight failed (typically another caller's
				// cancellation) or was deadline-truncated, but our
				// context is live: drop the dead entry if the computing
				// goroutine hasn't yet, and retry the solve ourselves.
				e.dropEntry(key, en)
				continue
			case <-ctx.Done():
				return core.Solution{}, ctx.Err()
			}
		}
		if e.limit > 0 && len(e.cache) >= e.limit {
			e.evictSampleLocked()
		}
		en = &cacheEntry{done: make(chan struct{})}
		e.cache[key] = en
		rs := e.resultStore
		e.mu.Unlock()

		// Having claimed the flight, try the second-level store before
		// claiming a solve slot: a stored solution completes the entry
		// exactly as a computed one would (waiters coalesce onto it), and
		// the lookup happens off the solve semaphore so a slow store
		// cannot starve actual solves.
		if rs != nil && storeEligible(pr) {
			if sol, ok := rs.Load(key); ok {
				en.sol = sol
				close(en.done)
				return cloneSolution(en.sol), nil
			}
		}

		// Claim an engine-wide solve slot; the flight must fail cleanly
		// if our context dies while queued, so waiters retry.
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			en.err = ctx.Err()
			close(en.done)
			e.dropEntry(key, en)
			return core.Solution{}, en.err
		}
		e.misses.Add(1)
		en.sol, en.err = e.compute(ctx, pr, opts, via)
		// An anytime incumbent returned while this caller's context is
		// dead was truncated by the deadline, not by its budget (a
		// budget expiry never cancels ctx): flag it before releasing
		// waiters so they re-solve instead of adopting it.
		en.truncated = en.err == nil && en.sol.Anytime && !en.sol.Exact && ctx.Err() != nil
		<-e.sem
		close(en.done)
		if en.err != nil || en.truncated {
			// Never cache failures or truncated incumbents: neither may
			// poison the fingerprint for future, uncancelled callers.
			e.dropEntry(key, en)
		} else if rs != nil && storeEligible(pr) {
			rs.Store(key, en.sol)
		}
		return cloneSolution(en.sol), en.err
	}
}

// compute runs the solve of a claimed flight on the slot its caller
// holds, with the extra slots donate grants. It releases them in a
// defer, which also recovers a solver panic into an error
// (core.Recovered). So a panic reaches solveVia as a failed solve: the
// slot is released, the flight fails and is dropped, never cached, and
// waiters retry. It costs its request and neither a solve slot nor the
// fingerprint, and on a batch worker it no longer ends the process.
func (e *Engine) compute(ctx context.Context, pr core.Problem, opts core.Options, via coreSolveFunc) (sol core.Solution, err error) {
	opts, extra := e.donate(opts)
	defer func() {
		e.releaseExtra(extra)
		if r := recover(); r != nil {
			sol, err = core.Solution{}, core.Recovered(r)
			e.countPanic(pr)
		}
	}()
	if via != nil {
		return via(ctx, pr, opts)
	}
	return core.SolveContext(ctx, pr, opts)
}

// countPanic counts one recovered solver panic against the instance's
// dispatch cell.
func (e *Engine) countPanic(pr core.Problem) {
	cell := core.CellKeyOf(pr).String()
	e.panicMu.Lock()
	if e.panics == nil {
		e.panics = make(map[string]uint64)
	}
	e.panics[cell]++
	e.panicMu.Unlock()
}

// Panics returns how many solver panics the engine has recovered, by
// dispatch cell (core.CellKey.String()): each failed one solve or one
// front pass. Cells without a panic are absent.
func (e *Engine) Panics() map[string]uint64 {
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	out := make(map[string]uint64, len(e.panics))
	for cell, n := range e.panics {
		out[cell] = n
	}
	return out
}

// donate resolves Options.Parallelism against the engine's solve-slot
// budget for one solve that already holds its main slot. A request for n
// workers claims up to n-1 extra slots without blocking — a solve on an
// otherwise-idle pool absorbs the idle workers, while a loaded pool
// donates nothing and the solve runs serial — so intra-solve parallelism
// can never oversubscribe the engine beyond its configured worker count.
// The returned options carry the granted worker count in the original
// encoding's sign (negative stays auto, so the core crossover heuristic
// still applies per instance); the caller must return the extra slots
// with releaseExtra. The serial path (Parallelism 0 or 1) takes the
// first return and allocates nothing.
func (e *Engine) donate(opts core.Options) (core.Options, int) {
	par := opts.Parallelism
	if par == 0 || par == 1 {
		return opts, 0
	}
	want := par
	if par < 0 {
		want = -par
		if par == -1 {
			want = e.workers
			if g := runtime.GOMAXPROCS(0); g < want {
				want = g
			}
		}
	}
	extra := 0
	for extra < want-1 {
		select {
		case e.sem <- struct{}{}:
			extra++
			continue
		default:
		}
		break
	}
	switch {
	case par > 1:
		opts.Parallelism = 1 + extra
	case extra > 0:
		opts.Parallelism = -(1 + extra)
	default:
		// Auto mode with no spare slots: plain serial. (-1 would mean
		// "up to GOMAXPROCS", the opposite of what the empty pool says.)
		opts.Parallelism = 1
	}
	return opts, extra
}

// releaseExtra returns the extra solve slots claimed by donate.
func (e *Engine) releaseExtra(extra int) {
	for ; extra > 0; extra-- {
		<-e.sem
	}
}

// evictSampleLocked makes room in a full cache: a single scan evicts
// completed entries that have not been hit since the previous eviction,
// clearing the second-chance bit of the survivors, until the cache is at
// half its limit. In-flight flights are never evicted (waiters stay
// coalesced), and a hot fingerprint — one hit since the last cycle —
// survives unless the whole epoch is hot, in which case a second scan
// evicts arbitrarily so a hot epoch cannot pin the cache over its bound.
// Evicting a sampled fraction instead of dropping the map wholesale keeps
// the hot working set warm: a full drop cold-starts every fingerprint at
// once, stampeding the solvers the moment traffic repeats.
func (e *Engine) evictSampleLocked() {
	target := e.limit / 2
	if target < 1 {
		target = 1
	}
	for pass := 0; pass < 2; pass++ {
		for k, v := range e.cache {
			if len(e.cache) <= target {
				return
			}
			select {
			case <-v.done:
			default:
				continue // in-flight: never evicted
			}
			if pass == 0 && v.used.CompareAndSwap(true, false) {
				continue // hot since the last cycle: second chance
			}
			delete(e.cache, k)
		}
	}
}

// uniqueHardProblems returns the distinct NP-hard instances of a batch —
// the solves that can actually consume anytime budget — deduplicated by
// their budget-independent fingerprint. Invalid problems are included
// conservatively (their solve fails later anyway).
func uniqueHardProblems(problems []core.Problem, opts core.Options) []core.Problem {
	stripped := opts
	stripped.AnytimeBudget = 0
	seen := make(map[string]struct{}, len(problems))
	var hard []core.Problem
	for _, pr := range problems {
		if core.ClassifyCell(core.CellKeyOf(pr)).Complexity.Polynomial() {
			continue
		}
		key := Fingerprint(pr, stripped)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		hard = append(hard, pr)
	}
	return hard
}

// splitBudget divides a batch-level anytime budget across the
// sequential rounds its n budget-consuming solves occupy on w workers:
// ceil(n/w) rounds, so each solve gets budget/rounds (at least 1ms so
// the portfolio can always seed an incumbent).
func splitBudget(opts core.Options, n, workers int) core.Options {
	if opts.AnytimeBudget <= 0 || n <= workers {
		return opts
	}
	rounds := (n + workers - 1) / workers
	per := opts.AnytimeBudget / time.Duration(rounds)
	if per < time.Millisecond {
		per = time.Millisecond
	}
	opts.AnytimeBudget = per
	return opts
}

// planBudgetScanCap bounds the quadratic consistency scan of
// planBatchBudget; batches with more distinct NP-hard instances fall back
// to the plain split (warm-cache redistribution matters most for small,
// repeated batches anyway).
const planBudgetScanCap = 64

// cachedCount counts the problems whose fingerprint under opts is
// already answered by the cache — a completed, untruncated entry or an
// in-flight flight this batch would coalesce onto. Those solves consume
// none of the batch budget.
func (e *Engine) cachedCount(hard []core.Problem, opts core.Options) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, pr := range hard {
		en, ok := e.cache[Fingerprint(pr, opts)]
		if !ok {
			continue
		}
		select {
		case <-en.done:
			if en.err == nil && !en.truncated {
				n++
			}
		default:
			n++ // in-flight: another caller's budget, not this batch's
		}
	}
	return n
}

// planBatchBudget derives the per-solve anytime budget of a batch. The
// starting point is the static split — budget / ceil(hard instances /
// workers) — but the static form loses budget whenever part of the batch
// is already cached: the cached solves are counted into the rounds, each
// pending solve gets the diluted share, and the unspent remainder of the
// warm entries evaporates. Instead, the planner searches for the smallest
// round count m whose share leaves at most m solves actually pending
// (uncached under that share's fingerprint), redistributing the rounds of
// warm entries to the solves that run. m = n is always consistent, so the
// result is never worse than the static split.
func (e *Engine) planBatchBudget(problems []core.Problem, opts core.Options) core.Options {
	if opts.AnytimeBudget <= 0 {
		return opts
	}
	hard := uniqueHardProblems(problems, opts)
	n := len(hard)
	if n == 0 {
		return opts
	}
	if n <= planBudgetScanCap {
		// Many m values share one split budget (every m <= workers, and
		// every m with the same round count): scan the cache once per
		// distinct budget, not once per m.
		counts := make(map[time.Duration]int)
		for m := 1; m < n; m++ {
			cand := splitBudget(opts, m, e.workers)
			c, ok := counts[cand.AnytimeBudget]
			if !ok {
				c = e.cachedCount(hard, cand)
				counts[cand.AnytimeBudget] = c
			}
			if n-c <= m {
				return cand
			}
		}
	}
	return splitBudget(opts, n, e.workers)
}

// preparedPool hands out core.PreparedSolver instances, one per worker at
// a time (a prepared solver is single-threaded scratch; sync.Pool keeps
// reuse affine to workers without locking shared state). All pooled
// solvers are prepared for the same base instance; the pool's solve is a
// coreSolveFunc usable wherever core.SolveContext is — byte-identical
// results are the prepared contract.
type preparedPool struct {
	pool sync.Pool
}

// newPreparedPool returns a pool for the instance, or nil when the
// prepared capability does not apply (polynomial cell, oversized
// instance, anytime budget).
func newPreparedPool(pr core.Problem, opts core.Options) *preparedPool {
	first, ok := core.Prepare(pr, opts)
	if !ok {
		return nil
	}
	p := &preparedPool{}
	p.pool.New = func() any {
		ps, ok := core.Prepare(pr, opts)
		if !ok {
			return (*core.PreparedSolver)(nil) // unreachable: first Prepare succeeded
		}
		return ps
	}
	p.pool.Put(first)
	return p
}

// solve dispatches one objective/bound variant through a pooled prepared
// solver.
func (p *preparedPool) solve(ctx context.Context, pr core.Problem, opts core.Options) (core.Solution, error) {
	ps := p.pool.Get().(*core.PreparedSolver)
	if ps == nil {
		return core.SolveContext(ctx, pr, opts)
	}
	defer p.pool.Put(ps)
	return solveOn(ctx, ps, pr, opts)
}

// solveOn solves one objective/bound variant on a prepared solver the
// caller owns for the call.
func solveOn(ctx context.Context, ps *core.PreparedSolver, pr core.Problem, opts core.Options) (core.Solution, error) {
	// The engine's slot donation rewrites Parallelism per solve; retune
	// the solver to this solve's grant (byte-identical results at every
	// setting).
	ps.SetParallelism(opts.Parallelism)
	return ps.SolveProblem(ctx, pr)
}

// sameSweepBase reports whether two problems differ at most in Objective
// and Bound — the precondition for solving both on one prepared solver.
// Graphs and the platform speed vector are compared by identity (O(1)),
// which is exactly how sweeps and batch expansions build their
// subproblems; value-equal copies just miss the optimization.
func sameSweepBase(a, b core.Problem) bool {
	return a.Pipeline == b.Pipeline && a.Fork == b.Fork && a.ForkJoin == b.ForkJoin &&
		a.SP == b.SP && a.CommPipeline == b.CommPipeline && a.CommFork == b.CommFork &&
		a.Bandwidth == b.Bandwidth &&
		a.AllowDataParallel == b.AllowDataParallel &&
		len(a.Platform.Speeds) == len(b.Platform.Speeds) &&
		(len(a.Platform.Speeds) == 0 || &a.Platform.Speeds[0] == &b.Platform.Speeds[0])
}

// batchPool returns a prepared pool when every problem of the batch is an
// objective/bound variant of one instance (the candidate solves of a
// Pareto sweep), nil otherwise.
func batchPool(problems []core.Problem, opts core.Options) *preparedPool {
	if len(problems) < 2 {
		return nil
	}
	for _, pr := range problems[1:] {
		if !sameSweepBase(problems[0], pr) {
			return nil
		}
	}
	return newPreparedPool(problems[0], opts)
}

// dropEntry removes the given entry from the cache iff it is still the
// one mapped at key (a retry may have installed a fresh flight already).
func (e *Engine) dropEntry(key string, en *cacheEntry) {
	e.mu.Lock()
	if e.cache[key] == en {
		delete(e.cache, key)
	}
	e.mu.Unlock()
}

// SolveBatch solves every problem concurrently across the worker pool,
// returning solutions aligned by index. The first error (including
// ctx.Err() on cancellation) aborts the batch and cancels the remaining
// solves. Duplicate instances within the batch are solved once.
//
// Options.AnytimeBudget is a whole-batch wall-clock target: it is split
// evenly across the sequential rounds the batch's real anytime work
// occupies (budget / ceil(pending NP-hard instances / workers), floored
// at 1ms), so a batch of NP-hard instances finishes in roughly the
// stated budget rather than budget x instances. Duplicates (solved once
// by the cache), polynomial instances (which ignore budgets) and
// instances already cached from earlier traffic do not dilute the share
// of the solves that actually consume it — the rounds a warm entry would
// have occupied are redistributed to the pending solves (planBatchBudget).
// Each solve is cached under its split per-solve budget.
//
// When the whole batch varies one instance only in Objective/Bound (the
// candidate solves of a Pareto sweep), the cache misses run on pooled
// prepared solvers — one per worker — sharing preprocessing and scratch
// across the batch (results identical either way; see core.Prepare).
func (e *Engine) SolveBatch(ctx context.Context, problems []core.Problem, opts core.Options) ([]core.Solution, error) {
	return e.solveBatchVia(ctx, problems, opts, nil)
}

// solveBatchVia is SolveBatch with an optional solver override; when nil,
// a batch-local prepared pool is used if the batch shape allows one.
func (e *Engine) solveBatchVia(ctx context.Context, problems []core.Problem, opts core.Options, via coreSolveFunc) ([]core.Solution, error) {
	if len(problems) == 0 {
		return nil, ctx.Err()
	}
	opts = e.planBatchBudget(problems, opts)
	if via == nil {
		if pool := batchPool(problems, opts); pool != nil {
			via = pool.solve
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sols := make([]core.Solution, len(problems))
	jobs := make(chan int)
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	workers := e.workers
	if workers > len(problems) {
		workers = len(problems)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sol, err := e.solveVia(ctx, problems[i], opts, via)
				if err != nil {
					fail(err)
					return
				}
				sols[i] = sol
			}
		}()
	}
feed:
	for i := range problems {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sols, nil
}

// ParetoFront computes the period/latency trade-off curve of the instance
// on the engine, returning the identical front to the serial
// core.ParetoFront. It is a thin wrapper over SweepFront — the
// incremental generator that emits each point as soon as dominance proves
// it final — collecting the emitted points into a slice. On instances the
// dispatcher solves exactly, the sweep solves only the bounded problems at
// the front's points; on the others the candidate-period subproblems
// solve concurrently across the worker pool (see SweepFront).
func (e *Engine) ParetoFront(ctx context.Context, pr core.Problem, opts core.Options) ([]core.Solution, error) {
	var front []core.Solution
	_, err := e.SweepFront(ctx, pr, opts, SweepObserver{Point: func(p SweepPoint) error {
		front = append(front, p.Solution)
		return nil
	}})
	if err != nil {
		return nil, err
	}
	return front, nil
}

// SolveBatch solves the problems concurrently on a fresh engine sized to
// GOMAXPROCS. Duplicate instances in the batch are still solved once; use
// an explicit Engine to share the cache across batches.
func SolveBatch(ctx context.Context, problems []core.Problem, opts core.Options) ([]core.Solution, error) {
	return New(0).SolveBatch(ctx, problems, opts)
}

// ParetoFront computes the trade-off curve concurrently on a fresh engine.
func ParetoFront(ctx context.Context, pr core.Problem, opts core.Options) ([]core.Solution, error) {
	return New(0).ParetoFront(ctx, pr, opts)
}

// cloneSolution returns a solution whose mapping is independent of the
// cached one, so callers mutating a returned mapping cannot corrupt the
// cache. Interval/block slices are copied; the read-only Procs slices are
// shared.
func cloneSolution(s core.Solution) core.Solution {
	if s.PipelineMapping != nil {
		m := *s.PipelineMapping
		m.Intervals = append([]mapping.PipelineInterval(nil), m.Intervals...)
		s.PipelineMapping = &m
	}
	if s.ForkMapping != nil {
		m := *s.ForkMapping
		m.Blocks = append([]mapping.ForkBlock(nil), m.Blocks...)
		s.ForkMapping = &m
	}
	if s.ForkJoinMapping != nil {
		m := *s.ForkJoinMapping
		m.Blocks = append([]mapping.ForkJoinBlock(nil), m.Blocks...)
		s.ForkJoinMapping = &m
	}
	if s.SPMapping != nil {
		m := *s.SPMapping
		m.Order = append([]int(nil), m.Order...)
		m.Blocks = append([]mapping.SPBlock(nil), m.Blocks...)
		if m.Pipeline != nil {
			p := *m.Pipeline
			p.Intervals = append([]mapping.PipelineInterval(nil), p.Intervals...)
			m.Pipeline = &p
		}
		if m.Fork != nil {
			f := *m.Fork
			f.Blocks = append([]mapping.ForkBlock(nil), f.Blocks...)
			m.Fork = &f
		}
		if m.ForkJoin != nil {
			fj := *m.ForkJoin
			fj.Blocks = append([]mapping.ForkJoinBlock(nil), fj.Blocks...)
			m.ForkJoin = &fj
		}
		s.SPMapping = &m
	}
	if s.CommPipelineMapping != nil {
		m := *s.CommPipelineMapping
		m.Bounds = append([]int(nil), m.Bounds...)
		m.Alloc = append([]int(nil), m.Alloc...)
		s.CommPipelineMapping = &m
	}
	if s.CommForkMapping != nil {
		m := *s.CommForkMapping
		m.Blocks = append([]fullmodel.ForkBlock(nil), m.Blocks...)
		m.SendOrder = slices.Clone(m.SendOrder) // keeps an empty order non-nil, as core returns it
		s.CommForkMapping = &m
	}
	return s
}
