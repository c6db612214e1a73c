package exhaustive

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// pipelinePeriodCandidates returns every achievable group period of any
// stage interval on any processor subset, sorted ascending and
// deduplicated: the period of any mapping is one of them. info is the
// platform's subset table. The bisection reference and the walk tests
// range over them.
func pipelinePeriodCandidates(p workflow.Pipeline, info []maskInfo, allowDP bool) []float64 {
	var vals []float64
	n := p.Stages()
	for i := 0; i < n; i++ {
		w := 0.0
		for j := i; j < n; j++ {
			w += p.Weights[j]
			for mask := 1; mask < len(info); mask++ {
				per, _ := groupCosts(w, info[mask], false)
				vals = append(vals, per)
				if allowDP && i == j {
					per, _ = groupCosts(w, info[mask], true)
					vals = append(vals, per)
				}
			}
		}
	}
	return numeric.DedupSorted(vals)
}

// pulBisect is PeriodUnderLatency as it was before the Pareto front: a
// binary search for the least candidate period whose latency-under-period
// solve meets the latency cap. It is the reference the front-backed
// solve must equal.
func pulBisect(ctx context.Context, pp *PipelinePrepared, maxLatency float64) (PipelineResult, bool, error) {
	cands := pipelinePeriodCandidates(pp.p, pp.s.info, pp.allowDP)
	lo, hi := 0, len(cands)-1
	var best PipelineResult
	found := false
	for lo <= hi {
		mid := (lo + hi) / 2
		res, ok, err := pp.LatencyUnderPeriod(ctx, cands[mid])
		if err != nil {
			return PipelineResult{}, false, err
		}
		if ok && numeric.LessEq(res.Cost.Latency, maxLatency) {
			best = res
			found = true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, found, nil
}

// benchShaped draws a pareto-sweep-shaped pipeline instance: 8–10
// stages on 6–7 heterogeneous processors.
func benchShaped(rng *rand.Rand) (workflow.Pipeline, platform.Platform) {
	ws := make([]float64, 8+rng.Intn(3))
	for i := range ws {
		ws[i] = float64(1 + rng.Intn(10))
	}
	return workflow.NewPipeline(ws...), platform.Random(rng, 6+rng.Intn(2), 5)
}

// distinctSpeeds returns pl with processor q's speed raised by q/16, so
// no two processors share a speed and no subset relabels another.
func distinctSpeeds(pl platform.Platform) platform.Platform {
	speeds := make([]float64, len(pl.Speeds))
	for q, s := range pl.Speeds {
		speeds[q] = s + float64(q)/16
	}
	return platform.New(speeds...)
}

// TestPipelineFrontMatchesEnumeration: the pass's front is the
// non-dominated filter of every mapping's cost, point for point.
func TestPipelineFrontMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		dp := trial%2 == 0
		var costs []mapping.Cost
		enumeratePipeline(p, pl, dp, func(_ mapping.PipelineMapping, c mapping.Cost) { costs = append(costs, c) })
		want := filterFront(costs)
		got, err := NewPipelinePrepared(p, pl, dp).Front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !sameFront(got, want) {
			t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
		}
	}
}

// filterFront is the non-dominated filter of costs, by increasing period.
func filterFront(costs []mapping.Cost) []mapping.Cost {
	var front []mapping.Cost
	for _, c := range costs {
		dominated := false
		for _, d := range costs {
			if d.Dominates(c) && !c.Dominates(d) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = insertCost(front, c)
		}
	}
	return front
}

// sameFront reports whether two fronts match point for point within the
// tolerance.
func sameFront(got, want []mapping.Cost) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if !numeric.Eq(got[k].Period, want[k].Period) || !numeric.Eq(got[k].Latency, want[k].Latency) {
			return false
		}
	}
	return true
}

// insertCost adds c to a period-ordered list of distinct front costs.
func insertCost(list []mapping.Cost, c mapping.Cost) []mapping.Cost {
	for k, d := range list {
		if numeric.Eq(d.Period, c.Period) {
			return list
		}
		if c.Period < d.Period {
			return append(list[:k], append([]mapping.Cost{c}, list[k:]...)...)
		}
	}
	return append(list, c)
}

// TestPipelineFrontPULMatchesBisection: on bench-shaped instances, with
// and without data-parallelism, the front-backed PeriodUnderLatency
// equals the binary search — mapping and cost — at every front latency,
// at random bounds, below the least latency (infeasible) and at +Inf;
// and the front holds exactly the costs of the candidate walk that
// PipelinePareto used to run.
func TestPipelineFrontPULMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		p, pl := benchShaped(rng)
		dp := trial%2 == 0
		pp := NewPipelinePrepared(p, pl, dp)
		ref := NewPipelinePrepared(p, pl, dp)
		front, err := pp.Front(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var walk []mapping.Cost
		prev := numeric.Inf
		for _, k := range pipelinePeriodCandidates(ref.p, ref.s.info, ref.allowDP) {
			res, ok, _ := ref.LatencyUnderPeriod(ctx, k)
			if !ok || numeric.GreaterEq(res.Cost.Latency, prev) {
				continue
			}
			tight, _, _ := pulBisect(ctx, ref, res.Cost.Latency)
			walk = append(walk, tight.Cost)
			prev = tight.Cost.Latency
		}
		if len(walk) != len(front) {
			t.Fatalf("trial %d: front %v, candidate walk %v", trial, front, walk)
		}
		for k := range walk {
			if !numeric.Eq(walk[k].Period, front[k].Period) || !numeric.Eq(walk[k].Latency, front[k].Latency) {
				t.Fatalf("trial %d: front %v, candidate walk %v", trial, front, walk)
			}
		}

		least := front[len(front)-1].Latency
		bounds := []float64{least * 0.99, least / 2, numeric.Inf, front[0].Latency * 2}
		for _, pt := range front {
			bounds = append(bounds, pt.Latency)
		}
		for b := 0; b < 50; b++ {
			bounds = append(bounds, least*0.9+rng.Float64()*(front[0].Latency*1.2-least*0.9))
		}
		for _, bound := range bounds {
			got, gotOK, err := pp.PeriodUnderLatency(ctx, bound)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, _ := pulBisect(ctx, ref, bound)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, bound %v: front-backed (%v, %v), bisection (%v, %v)", trial, bound, got, gotOK, want, wantOK)
			}
			if bound < least && gotOK {
				t.Fatalf("trial %d: bound %v below the least latency %v is feasible", trial, bound, least)
			}
		}
	}
}

// TestPipelineParetoNoDPSolves: PipelinePareto runs no scalar DP solve
// on top of the pass — every point's solve is a walk over its lists.
func TestPipelineParetoNoDPSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 4; trial++ {
		p, pl := benchShaped(rng)
		before := PipelineDPSolves()
		front := PipelinePareto(p, pl, trial%2 == 0)
		if solves := PipelineDPSolves() - before; len(front) == 0 || solves != 0 {
			t.Errorf("trial %d: %d DP solves for a front of %d points", trial, solves, len(front))
		}
	}
}

// walkCase draws an instance of the walk tests: trial picks the weights
// (integer, all equal, float), the platform (heterogeneous, homogeneous,
// float speeds) and data-parallelism, so every combination recurs.
func walkCase(rng *rand.Rand, trial int) (workflow.Pipeline, platform.Platform, bool) {
	ws := make([]float64, 1+rng.Intn(6))
	same := float64(1 + rng.Intn(6))
	for i := range ws {
		switch trial % 3 {
		case 0:
			ws[i] = float64(1 + rng.Intn(10))
		case 1:
			ws[i] = same
		default:
			ws[i] = 0.5 + 9*rng.Float64()
		}
	}
	procs := 1 + rng.Intn(5)
	var pl platform.Platform
	switch trial / 3 % 3 {
	case 0:
		pl = platform.Random(rng, procs, 5)
	case 1:
		pl = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
	default:
		speeds := make([]float64, procs)
		for k := range speeds {
			speeds[k] = 0.5 + 4*rng.Float64()
		}
		pl = platform.New(speeds...)
	}
	return workflow.NewPipeline(ws...), pl, trial/9%2 == 0
}

// walkCaps returns the caps of the walk tests: every candidate period,
// each one nudged by a relative 1e-10 either way, the midpoints between
// neighbours, one below the least candidate and +Inf.
func walkCaps(cands []float64) []float64 {
	caps := []float64{cands[0] / 2, numeric.Inf}
	for k, c := range cands {
		caps = append(caps, c, c*(1-1e-10), c*(1+1e-10))
		if k+1 < len(cands) {
			caps = append(caps, (c+cands[k+1])/2)
		}
	}
	return caps
}

// TestPipelineWalkMatchesDP: after a pass, LatencyUnderPeriod answers by
// a walk over the pass's lists, with no DP solve, and equals a DP solve
// on a solver that ran no pass — mapping and cost — at every candidate
// period, next to it and between candidates, over integer, all-equal and
// float weights on heterogeneous, homogeneous and float-speed platforms,
// with data-parallelism on and off. Walks repeated in a shuffled cap
// order give the same answers, and a walk cut by its context leaves the
// next one exact.
func TestPipelineWalkMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	ctx := context.Background()
	for trial := 0; trial < 180; trial++ {
		p, pl, dp := walkCase(rng, trial)
		pp := NewPipelinePrepared(p, pl, dp)
		ref := NewPipelinePrepared(p, pl, dp)
		if _, err := pp.Front(ctx); err != nil {
			t.Fatal(err)
		}
		caps := walkCaps(pipelinePeriodCandidates(ref.p, ref.s.info, ref.allowDP))
		type answer struct {
			res PipelineResult
			ok  bool
		}
		want := make([]answer, len(caps))
		before := PipelineDPSolves()
		for k, c := range caps {
			got, ok, err := pp.LatencyUnderPeriod(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			want[k].res, want[k].ok, _ = ref.LatencyUnderPeriod(ctx, c)
			if ok != want[k].ok || !reflect.DeepEqual(got, want[k].res) {
				t.Fatalf("trial %d (%v on %v, dp %v), cap %v: walk (%v, %v), DP (%v, %v)", trial, p.Weights, pl.Speeds, dp, c, got, ok, want[k].res, want[k].ok)
			}
		}
		if solves := PipelineDPSolves() - before; solves != int64(len(caps)) {
			t.Fatalf("trial %d: %d DP solves for %d caps, want only the reference's", trial, solves, len(caps))
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := pp.LatencyUnderPeriod(cancelled, numeric.Inf); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: walk on a cancelled context returned %v", trial, err)
		}
		for _, k := range rng.Perm(len(caps)) {
			got, ok, err := pp.LatencyUnderPeriod(ctx, caps[k])
			if err != nil || ok != want[k].ok || !reflect.DeepEqual(got, want[k].res) {
				t.Fatalf("trial %d, cap %v repeated: walk (%v, %v, %v), DP (%v, %v)", trial, caps[k], got, ok, err, want[k].res, want[k].ok)
			}
		}
	}
}

// pollCountCtx is a context whose Err reports cancellation from its n-th
// call on: polled by the pass's stepper, it cuts the pass at a chosen
// point in its middle.
type pollCountCtx struct {
	context.Context
	polls, n int
}

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestPipelineFrontCancellation: a pass cut short returns the context's
// error, and so does a PeriodUnderLatency waiting on it. Cut at any of
// its polls — so after folds have run in its per-level lists — it
// keeps no lists, so the next LatencyUnderPeriod runs the DP, and it
// leaves the solver as good as new: the next Front and
// PeriodUnderLatency on it equal a fresh solver's, with no DP solve.
//
// The speeds are made distinct (processor q gains q/16): the pass skips
// subsets that only relabel equal-speed processors, and on the drawn
// speeds {2, 1, 2, 5, 1, 2} it lists 170 states and polls once, against
// 463 states and 4 polls here.
func TestPipelineFrontCancellation(t *testing.T) {
	p, pl := benchShaped(rand.New(rand.NewSource(65)))
	pl = distinctSpeeds(pl)
	fresh := NewPipelinePrepared(p, pl, true)
	want, err := fresh.Front(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Count the polls of a whole pass, then cut at each of them.
	counter := &pollCountCtx{Context: context.Background(), n: int(^uint(0) >> 1)}
	if _, err := NewPipelinePrepared(p, pl, true).Front(counter); err != nil {
		t.Fatal(err)
	}
	if counter.polls < 3 {
		t.Fatalf("the pass polled %d times; the instance is too small to cut mid-pass", counter.polls)
	}
	midCap := want[len(want)/2].Period
	dpRes, dpOK, _ := NewPipelinePrepared(p, pl, true).LatencyUnderPeriod(context.Background(), midCap)
	bounds := []float64{numeric.Inf, want[0].Latency, want[len(want)-1].Latency, want[len(want)-1].Latency * 0.99}
	for _, c := range want {
		bounds = append(bounds, c.Latency*1.01)
	}
	for n := 1; n <= counter.polls; n++ {
		pp := NewPipelinePrepared(p, pl, true)
		ctx := &pollCountCtx{Context: context.Background(), n: n}
		if front, err := pp.Front(ctx); !errors.Is(err, context.Canceled) || front != nil {
			t.Fatalf("pass cut at poll %d returned (%v, %v), want (nil, context.Canceled)", n, front, err)
		}
		if _, _, err := pp.PeriodUnderLatency(ctx, numeric.Inf); !errors.Is(err, context.Canceled) {
			t.Fatalf("PeriodUnderLatency on a cancelled context returned %v", err)
		}
		before := PipelineDPSolves()
		res, ok, err := pp.LatencyUnderPeriod(context.Background(), midCap)
		if solves := PipelineDPSolves() - before; err != nil || solves != 1 || ok != dpOK || !reflect.DeepEqual(res, dpRes) {
			t.Fatalf("LatencyUnderPeriod after a pass cut at poll %d: (%v, %v, %v) in %d DP solves, want (%v, %v) in 1", n, res, ok, err, solves, dpRes, dpOK)
		}
		got, err := pp.Front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("front after a pass cut at poll %d:\n%v\nfresh:\n%v", n, got, want)
		}
		before = PipelineDPSolves()
		for _, b := range bounds {
			res, ok, err := pp.PeriodUnderLatency(context.Background(), b)
			ref, refOK, _ := fresh.PeriodUnderLatency(context.Background(), b)
			if err != nil || ok != refOK || !reflect.DeepEqual(res, ref) {
				t.Fatalf("PeriodUnderLatency(%v) after a pass cut at poll %d: (%v, %v, %v), fresh (%v, %v)", b, n, res, ok, err, ref, refOK)
			}
		}
		if solves := PipelineDPSolves() - before; solves != 0 {
			t.Fatalf("after a pass cut at poll %d and a completed one: %d DP solves, want 0", n, solves)
		}
	}
}

// TestPipelineFrontAllocs pins the allocations of a fresh bench-shaped
// solver and its one pass (24 when the ceiling was set): the pass sizes
// its state spans, arena and per-level lists once, and only a list
// longer than its first room regrows.
func TestPipelineFrontAllocs(t *testing.T) {
	p := workflow.NewPipeline(3, 9, 4, 7, 1, 8, 2, 6, 5, 10)
	pl := platform.New(5, 4, 3, 3, 2, 1, 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewPipelinePrepared(p, pl, true).Front(ctx); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 30
	if allocs > ceiling {
		t.Errorf("prepared solver plus one front pass: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// scanFrontCase is a small random fork or fork-join instance of the
// scan front tests: trial picks the kind, the platform's homogeneity and
// data-parallelism, so every combination recurs.
func scanFrontCase(rng *rand.Rand, trial int) (front func(context.Context) ([]mapping.Cost, error), oracle func() []mapping.Cost) {
	dp := trial%2 == 0
	procs := 1 + rng.Intn(4)
	pl := platform.Random(rng, procs, 5)
	if trial%4 >= 2 {
		pl = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
	}
	if trial%8 < 4 {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 9)
		return NewForkPrepared(f, pl, dp).Front, func() []mapping.Cost { return resultCosts(ForkPareto(f, pl, dp)) }
	}
	fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
	return NewForkJoinPrepared(fj, pl, dp).Front, func() []mapping.Cost { return resultCosts(forkJoinPareto(fj, pl, dp)) }
}

func resultCosts[M any](rs []Result[M]) []mapping.Cost {
	out := make([]mapping.Cost, len(rs))
	for k, r := range rs {
		out[k] = r.Cost
	}
	return out
}

// TestScanFrontMatchesEnumeration: the fork and fork-join passes' fronts
// are the enumerate-then-filter fronts of ForkPareto and forkJoinPareto,
// point for point within the tolerance, on homogeneous and heterogeneous
// platforms, with data-parallelism on and off.
func TestScanFrontMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 64; trial++ {
		front, oracle := scanFrontCase(rng, trial)
		got, err := front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(); !sameFront(got, want) {
			t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
		}
	}
}

// TestScanFrontCancellation: a fork or fork-join pass cut at any of its
// polls returns the context's error and no front, and the next pass on
// the same solver returns the whole front.
func TestScanFrontCancellation(t *testing.T) {
	ctx := context.Background()
	fork := workflow.NewFork(4, 7, 3, 9, 4, 6, 2)
	fj := workflow.NewForkJoin(5, 4, 7, 3, 9, 4, 6)
	pl := platform.New(5, 4, 3, 2, 1)
	type fronter interface {
		Front(context.Context) ([]mapping.Cost, error)
	}
	for name, newSolver := range map[string]func() fronter{
		"fork":      func() fronter { return NewForkPrepared(fork, pl, true) },
		"fork-join": func() fronter { return NewForkJoinPrepared(fj, pl, true) },
	} {
		counter := &pollCountCtx{Context: ctx, n: int(^uint(0) >> 1)}
		want, err := newSolver().Front(counter)
		if err != nil {
			t.Fatal(err)
		}
		if counter.polls < 3 {
			t.Fatalf("%s: the pass polled %d times; the instance is too small to cut mid-pass", name, counter.polls)
		}
		t.Logf("%s: %d polls, %d points", name, counter.polls, len(want))
		for n := 1; n <= counter.polls; n++ {
			s := newSolver()
			if front, err := s.Front(&pollCountCtx{Context: ctx, n: n}); !errors.Is(err, context.Canceled) || front != nil {
				t.Fatalf("%s: pass cut at poll %d returned (%v, %v), want (nil, context.Canceled)", name, n, front, err)
			}
			got, err := s.Front(ctx)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: front after a pass cut at poll %d: (%v, %v), want %v", name, n, got, err, want)
			}
		}
	}
}

// seededBounds returns the bounds of the seeded-solve tests over a
// front: latency bounds at each front latency, nudged by a relative
// 1e-10 either way, between neighbours and below the least; period
// bounds at each front period, nudged either way and 1% above. Both
// lists hold +Inf too.
func seededBounds(front []mapping.Cost) (lats, pers []float64) {
	lats = []float64{front[len(front)-1].Latency / 2, numeric.Inf}
	pers = []float64{numeric.Inf}
	for k, c := range front {
		lats = append(lats, c.Latency, c.Latency*(1-1e-10), c.Latency*(1+1e-10))
		if k > 0 {
			lats = append(lats, (c.Latency+front[k-1].Latency)/2)
		}
		pers = append(pers, c.Period, c.Period*(1-1e-10), c.Period*(1+1e-10), c.Period*1.01)
	}
	return lats, pers
}

// checkSeeded runs a front pass on a solver of newSolver at the given
// worker count, then every seededBounds solve on it and on a fresh
// solver that ran no pass, and fails unless each pair is equal, mapping
// and cost. A pass then cut at its first poll must leave no list to seed
// from.
func checkSeeded(t *testing.T, trial, workers int, newSolver func() *ForkJoinPrepared) {
	t.Helper()
	ctx := context.Background()
	sp := newSolver()
	sp.SetParallelism(workers)
	front, err := sp.Front(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.front) != len(front) {
		t.Fatalf("trial %d: a completed pass kept %d of its %d points", trial, len(sp.front), len(front))
	}
	lats, pers := seededBounds(front)
	check := func(minimizePeriod bool, bound float64) {
		t.Helper()
		got, ok, err := sp.Solve(ctx, minimizePeriod, bound)
		fresh := newSolver()
		fresh.SetParallelism(workers)
		want, wantOK, wantErr := fresh.Solve(ctx, minimizePeriod, bound)
		if err != nil || wantErr != nil || ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, %d workers, minimize period %v under %v: seeded (%v, %v, %v), fresh (%v, %v, %v); front %v",
				trial, workers, minimizePeriod, bound, got, ok, err, want, wantOK, wantErr, front)
		}
	}
	for _, l := range lats {
		check(true, l)
	}
	for _, p := range pers {
		check(false, p)
	}
	if _, err := sp.Front(&pollCountCtx{Context: ctx, n: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("trial %d: a pass cut at its first poll returned %v", trial, err)
	}
	if sp.front != nil {
		t.Fatalf("trial %d: a cut pass left %d points to seed from", trial, len(sp.front))
	}
}

// TestScanFrontSeededMatchesFresh: after a completed front pass, each
// bounded solve of a fork or fork-join solver starts from the optimum
// the pass proved and equals the same solve on a fresh solver, mapping
// and cost (see checkSeeded), with data-parallelism on and off, on
// integer and fractional speeds, at 1 and 3 workers.
func TestScanFrontSeededMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 96; trial++ {
		dp := trial%2 == 0
		procs := 2 + rng.Intn(3)
		pl := platform.Random(rng, procs, 5)
		if trial%4 >= 2 {
			speeds := make([]float64, procs)
			for k := range speeds {
				speeds[k] = 0.5 + 4*rng.Float64()
			}
			pl = platform.New(speeds...)
		}
		workers := 1 + 2*(trial/4%2)
		if trial%16 < 8 {
			f := workflow.RandomFork(rng, 2+rng.Intn(4), 9)
			checkSeeded(t, trial, workers, func() *ForkPrepared { return NewForkPrepared(f, pl, dp) })
		} else {
			fj := workflow.RandomForkJoin(rng, 2+rng.Intn(3), 9)
			checkSeeded(t, trial, workers, func() *ForkJoinPrepared { return NewForkJoinPrepared(fj, pl, dp) })
		}
	}
}

// forkJoinPareto returns the exact Pareto front of (period, latency) over
// all fork-join mappings, ordered by increasing period: every mapping
// enumerated, then filtered, as ForkPareto does for forks.
func forkJoinPareto(fj workflow.ForkJoin, pl platform.Platform, allowDP bool) []ForkJoinResult {
	var all []ForkJoinResult
	enumerateForkJoin(fj, pl, allowDP, func(m mapping.ForkJoinMapping, c mapping.Cost) {
		all = append(all, ForkJoinResult{Mapping: m, Cost: c})
	})
	return paretoFilter(all)
}

// enumerateForkJoin invokes visit for every valid fork-join mapping. Each
// visited mapping is an independent copy the visitor may retain.
func enumerateForkJoin(fj workflow.ForkJoin, pl platform.Platform, allowDP bool, visit func(mapping.ForkJoinMapping, mapping.Cost)) {
	newFJEnum(fj, true, pl, allowDP, buildMaskInfo(pl)).runFrom(context.Background(), nil, 0, nil, func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
		visit(m.Clone(), c)
		return true
	})
}
