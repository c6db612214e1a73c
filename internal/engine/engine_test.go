package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// randomProblem builds a random solvable instance of any kind over both
// platform flavours, small enough that NP-hard cells stay exhaustive.
func randomProblem(rng *rand.Rand) core.Problem {
	pr := core.Problem{
		AllowDataParallel: rng.Intn(2) == 0,
		Objective:         core.Objective(rng.Intn(4)),
	}
	if pr.Objective.Bounded() {
		pr.Bound = float64(1+rng.Intn(30)) / 2
	}
	procs := 2 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
	} else {
		pr.Platform = platform.Random(rng, procs, 5)
	}
	stages := 2 + rng.Intn(3)
	switch rng.Intn(3) {
	case 0:
		g := workflow.RandomPipeline(rng, stages, 9)
		pr.Pipeline = &g
	case 1:
		g := workflow.RandomFork(rng, stages, 9)
		pr.Fork = &g
	default:
		g := workflow.RandomForkJoin(rng, stages, 9)
		pr.ForkJoin = &g
	}
	return pr
}

// TestSolveBatchMatchesSerial checks that the concurrent batch returns,
// for every instance, exactly the solution a serial core.Solve returns.
func TestSolveBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	problems := make([]core.Problem, 60)
	for i := range problems {
		problems[i] = randomProblem(rng)
	}
	sols, err := SolveBatch(context.Background(), problems, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(problems) {
		t.Fatalf("batch returned %d solutions for %d problems", len(sols), len(problems))
	}
	for i, pr := range problems {
		want, err := core.Solve(pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, sols[i]) {
			t.Errorf("problem %d: batch solution diverges from serial\nserial: %v\nbatch:  %v", i, want, sols[i])
		}
	}
}

// TestSolveBatchDeduplicates checks the memoization cache: duplicates in a
// batch are solved once, repeated batches hit the cache entirely.
func TestSolveBatchDeduplicates(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.Homogeneous(3, 1)
	pr := core.Problem{Pipeline: &pipe, Platform: pl, AllowDataParallel: true, Objective: core.MinLatency}
	batch := make([]core.Problem, 16)
	for i := range batch {
		batch[i] = pr
	}
	e := New(4)
	if _, err := e.SolveBatch(context.Background(), batch, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if size := e.CacheSize(); size != 1 {
		t.Errorf("cache holds %d entries for one distinct instance", size)
	}
	hits, misses := e.CacheStats()
	if misses != 1 {
		t.Errorf("distinct instance solved %d times, want 1", misses)
	}
	if hits != 15 {
		t.Errorf("cache hits = %d, want 15", hits)
	}
	// Second batch: all hits.
	if _, err := e.SolveBatch(context.Background(), batch, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.CacheStats(); misses != 1 {
		t.Errorf("repeat batch re-solved the instance (%d misses)", misses)
	}
	e.Reset()
	if e.CacheSize() != 0 {
		t.Error("Reset left entries behind")
	}
}

// TestSolveBatchSharesCacheMutationSafe checks a caller mutating a
// returned mapping cannot corrupt later cache reads.
func TestSolveBatchSharesCacheMutationSafe(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(3, 1), Objective: core.MinPeriod}
	e := New(2)
	first, err := e.Solve(context.Background(), pr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the returned mapping.
	first.PipelineMapping.Intervals[0].First = 99
	second, err := e.Solve(context.Background(), pr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.PipelineMapping.Intervals[0].First == 99 {
		t.Error("mutating a returned solution corrupted the cache")
	}
}

// TestSolveBatchCancellation checks a cancelled context aborts the batch
// with ctx.Err().
func TestSolveBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	problems := make([]core.Problem, 32)
	for i := range problems {
		problems[i] = randomProblem(rng)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveBatch(ctx, problems, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
}

// TestSolveWaiterSurvivesOtherCallersCancellation pins the single-flight
// isolation property: when the goroutine computing a fingerprint is
// cancelled, a concurrent waiter on the same fingerprint whose own
// context is live must retry and succeed instead of adopting the
// cancellation error.
func TestSolveWaiterSurvivesOtherCallersCancellation(t *testing.T) {
	// A multi-hundred-millisecond exhaustive search so the waiter reliably
	// joins the first caller's flight before it is cancelled. Its speeds
	// are distinct, since the DP searches each set of equal-speed
	// processors once.
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pl := platform.New(50, 40, 30, 31, 20, 21, 10, 11, 41, 22, 32, 51, 23, 12)
	pr := core.Problem{Pipeline: &pipe, Platform: pl, AllowDataParallel: true, Objective: core.MinPeriod}
	opts := core.Options{MaxExhaustivePipelineProcs: 14}

	e := New(4)
	ctxA, cancelA := context.WithCancel(context.Background())
	aStarted := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		close(aStarted)
		_, err := e.Solve(ctxA, pr, opts)
		aDone <- err
	}()
	<-aStarted
	go func() {
		// Cancel A shortly after it has claimed the flight.
		cancelA()
	}()

	// B waits on A's flight (or starts its own if A already failed); its
	// context is never cancelled, so it must get a real solution.
	sol, err := e.Solve(context.Background(), pr, opts)
	if err != nil {
		t.Fatalf("live-context waiter inherited a failure: %v", err)
	}
	if !sol.Feasible || sol.PipelineMapping == nil {
		t.Fatalf("live-context waiter got a bogus solution: %v", sol)
	}
	if aErr := <-aDone; aErr != nil && !errors.Is(aErr, context.Canceled) {
		t.Fatalf("cancelled caller returned unexpected error: %v", aErr)
	}
}

// TestSolveBatchPropagatesErrors checks an invalid instance fails the
// batch instead of silently returning a zero solution.
func TestSolveBatchPropagatesErrors(t *testing.T) {
	problems := []core.Problem{{}} // no graph: invalid
	if _, err := SolveBatch(context.Background(), problems, core.Options{}); err == nil {
		t.Fatal("invalid instance did not fail the batch")
	}
}

// TestFingerprint checks the canonical-identity properties the cache
// relies on.
func TestFingerprint(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(3, 1), Objective: core.MinPeriod}

	// Zero options and explicit defaults collide.
	if Fingerprint(pr, core.Options{}) != Fingerprint(pr, core.DefaultOptions()) {
		t.Error("zero Options and DefaultOptions fingerprint differently")
	}
	// Objective distinguishes.
	lat := pr
	lat.Objective = core.MinLatency
	if Fingerprint(pr, core.Options{}) == Fingerprint(lat, core.Options{}) {
		t.Error("objective not part of the fingerprint")
	}
	// A one-ULP weight difference distinguishes.
	w2 := append([]float64(nil), pipe.Weights...)
	w2[0] = math.Nextafter(w2[0], 2*w2[0])
	pipe2 := workflow.NewPipeline(w2...)
	pr2 := pr
	pr2.Pipeline = &pipe2
	if Fingerprint(pr, core.Options{}) == Fingerprint(pr2, core.Options{}) {
		t.Error("one-ULP weight change not part of the fingerprint")
	}
	// A fork and a fork-join with identical weights differ.
	f := workflow.NewFork(2, 1, 3)
	fj := workflow.NewForkJoin(2, 1, 3)
	prF := core.Problem{Fork: &f, Platform: platform.Homogeneous(2, 1), Objective: core.MinPeriod}
	prFJ := core.Problem{ForkJoin: &fj, Platform: platform.Homogeneous(2, 1), Objective: core.MinPeriod}
	if Fingerprint(prF, core.Options{}) == Fingerprint(prFJ, core.Options{}) {
		t.Error("graph kind not part of the fingerprint")
	}
	// Unbounded objectives ignore Bound.
	b := pr
	b.Bound = 42
	if Fingerprint(pr, core.Options{}) != Fingerprint(b, core.Options{}) {
		t.Error("irrelevant Bound leaked into the fingerprint of an unbounded objective")
	}
}

// TestEngineParetoMatchesSerial is the engine/serial equivalence gate of
// the refactor: on randomized pipeline, fork and fork-join instances over
// homogeneous and heterogeneous platforms, the engine-backed ParetoFront
// must return the identical front — same period/latency pairs, same
// exactness flags, same mappings — as the serial core.ParetoFront.
func TestEngineParetoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := 0
	for _, homPlat := range []bool{true, false} {
		for kind := 0; kind < 3; kind++ {
			for trial := 0; trial < 3; trial++ {
				pr := core.Problem{AllowDataParallel: rng.Intn(2) == 0, Objective: core.MinPeriod}
				procs := 2 + rng.Intn(3)
				if homPlat {
					pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
				} else {
					pr.Platform = platform.Random(rng, procs, 5)
				}
				stages := 2 + rng.Intn(3)
				switch kind {
				case 0:
					g := workflow.RandomPipeline(rng, stages, 9)
					pr.Pipeline = &g
				case 1:
					g := workflow.RandomFork(rng, stages, 9)
					pr.Fork = &g
				default:
					g := workflow.RandomForkJoin(rng, stages, 9)
					pr.ForkJoin = &g
				}

				serial, err := core.ParetoFront(pr, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := ParetoFront(context.Background(), pr, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("engine front diverges from serial (homPlat=%v kind=%d trial=%d)\nserial:   %v\nparallel: %v",
						homPlat, kind, trial, serial, parallel)
				}
				if !core.FrontIsMonotone(parallel) {
					t.Errorf("engine front not monotone (homPlat=%v kind=%d trial=%d)", homPlat, kind, trial)
				}
				cases++
			}
		}
	}
	if cases != 18 {
		t.Fatalf("covered %d cases, want 18", cases)
	}

	// Extra inputs: the walked cells (irreducible SP, comm-fork and the
	// polynomial cells, the homogeneous comm-pipeline among them),
	// fractional speeds on the front-pass kinds, and walked fronts whose
	// latencies lie within 2·Eps of zero, where no positive bound is
	// strictly below a front latency.
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	fj := workflow.NewForkJoin(5, 4, 7, 3, 9)
	unit := workflow.NewPipeline(1, 1)
	extra := append(walkedInstances(),
		walkedCase{"pipeline/near-zero-latency", core.Problem{Pipeline: &unit, Platform: platform.New(1e9, 1e9)}},
		walkedCase{"pipeline/near-zero-latency-dp", core.Problem{Pipeline: &unit, Platform: platform.New(1e9, 1e9, 1e9), AllowDataParallel: true}},
		walkedCase{"pipeline/float-speeds", core.Problem{Pipeline: &pipe, Platform: platform.New(2.5, 1.25, 0.75), AllowDataParallel: true}},
		walkedCase{"fork-join/float-speeds", core.Problem{ForkJoin: &fj, Platform: platform.New(3.5, 1.5, 0.5, 2.25)}},
	)
	for _, c := range extra {
		serial, err := core.ParetoFront(c.pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := ParetoFront(context.Background(), c.pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) == 0 || !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: engine front diverges from serial\nserial:   %v\nparallel: %v", c.name, serial, parallel)
		}
	}
}

// TestEngineParetoMatchesSerialLarge pins engine/serial front equality on
// the two regimes the randomized corpus undersamples: a heterogeneous
// 8-processor NP-hard instance solved exhaustively (the front pass), and
// an oversized instance solved heuristically (the walk, whose heuristic
// bounded solves guarantee no monotonicity: the front accumulator keeps
// the front monotone).
func TestEngineParetoMatchesSerialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second serial sweep")
	}
	// Exhaustive regime: heterogeneous 8-processor platform, heterogeneous
	// pipeline with data-parallelism — the Theorem 5 NP-hard cell within
	// the exhaustive limits.
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	het8 := platform.New(5, 4, 3, 3, 2, 2, 1, 1)
	exact := core.Problem{Pipeline: &pipe, Platform: het8, AllowDataParallel: true}

	// Heuristic regime: 12 processors exceed MaxExhaustivePipelineProcs,
	// forcing the heuristic fallback on every solve of the walk.
	het12 := platform.New(5, 4, 3, 3, 2, 2, 1, 1, 4, 2, 3, 1)
	heuristic := core.Problem{Pipeline: &pipe, Platform: het12, AllowDataParallel: true}

	for name, pr := range map[string]core.Problem{"exhaustive8": exact, "heuristic12": heuristic} {
		serial, err := core.ParetoFront(pr, core.Options{})
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		parallel, err := ParetoFront(context.Background(), pr, core.Options{})
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: engine front diverges from serial\nserial:   %v\nparallel: %v", name, serial, parallel)
		}
		if len(parallel) == 0 || !core.FrontIsMonotone(parallel) {
			t.Errorf("%s: empty or non-monotone front %v", name, parallel)
		}
	}
}

// TestEngineParetoCancellation checks ParetoFront honours its context.
func TestEngineParetoCancellation(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 5)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.New(5, 4, 3, 3, 2, 2, 1, 1), AllowDataParallel: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParetoFront(ctx, pr, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pareto returned %v, want context.Canceled", err)
	}
}

// TestCacheEvictionKeepsHotKeys pins the anti-stampede property of the
// sampled eviction: a fingerprint hit since the previous eviction cycle
// survives the cycle, so hot traffic is not cold-started wholesale when
// the cache reaches its bound.
func TestCacheEvictionKeepsHotKeys(t *testing.T) {
	e := New(1)
	e.SetCacheLimit(4)
	pl := platform.Homogeneous(1, 1)
	solve := func(w float64) {
		t.Helper()
		pipe := workflow.NewPipeline(w)
		if _, err := e.Solve(context.Background(), core.Problem{Pipeline: &pipe, Platform: pl, Objective: core.MinPeriod}, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	solve(1) // the hot key...
	solve(1) // ...hit once, marking it hot
	solve(2)
	solve(3)
	solve(4) // cache now at its limit of 4, the other three keys cold
	solve(5) // triggers an eviction cycle before inserting

	hitsBefore, missesBefore := e.CacheStats()
	solve(1) // the hot key must have survived the cycle
	hits, misses := e.CacheStats()
	if hits != hitsBefore+1 || misses != missesBefore {
		t.Errorf("hot key evicted: hits %d -> %d, misses %d -> %d",
			hitsBefore, hits, missesBefore, misses)
	}
	if size := e.CacheSize(); size > 4 {
		t.Errorf("cache grew to %d entries despite limit 4", size)
	}
}

// TestCacheLimitEpochEviction checks SetCacheLimit keeps the cache
// bounded: inserts beyond the limit evict a sampled fraction, and solves
// keep returning correct results throughout.
func TestCacheLimitEpochEviction(t *testing.T) {
	e := New(1)
	e.SetCacheLimit(2)
	pl := platform.Homogeneous(1, 1)
	for w := 1; w <= 7; w++ {
		pipe := workflow.NewPipeline(float64(w))
		sol, err := e.Solve(context.Background(), core.Problem{Pipeline: &pipe, Platform: pl, Objective: core.MinPeriod}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost.Period != float64(w) {
			t.Fatalf("weight %d: period %g", w, sol.Cost.Period)
		}
		if size := e.CacheSize(); size > 2 {
			t.Fatalf("cache grew to %d entries despite limit 2", size)
		}
	}
	// A repeated instance still hits whatever epoch holds it.
	hitsBefore, _ := e.CacheStats()
	pipe := workflow.NewPipeline(7)
	if _, err := e.Solve(context.Background(), core.Problem{Pipeline: &pipe, Platform: pl, Objective: core.MinPeriod}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if hitsAfter, _ := e.CacheStats(); hitsAfter != hitsBefore+1 {
		t.Fatalf("repeat of cached instance missed (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}
