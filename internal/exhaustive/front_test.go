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

// pulBisect is PeriodUnderLatency as it was before the Pareto front: a
// binary search for the least candidate period whose latency-under-period
// solve meets the latency cap. It is the reference the front-backed
// solve must equal.
func pulBisect(ctx context.Context, pp *PipelinePrepared, maxLatency float64) (PipelineResult, bool, error) {
	cands := pp.candidates()
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
		var want []mapping.Cost
		for _, c := range costs {
			dominated := false
			for _, d := range costs {
				if d.Dominates(c) && !c.Dominates(d) {
					dominated = true
					break
				}
			}
			if !dominated {
				want = insertCost(want, c)
			}
		}
		got, err := NewPipelinePrepared(p, pl, dp).Front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
		}
		for k := range got {
			if !numeric.Eq(got[k].Period, want[k].Period) || !numeric.Eq(got[k].Latency, want[k].Latency) {
				t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
			}
		}
	}
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
		for _, k := range ref.candidates() {
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

// TestPipelineParetoSolvesOncePerPoint: PipelinePareto runs one scalar
// DP solve per front point on top of the pass.
func TestPipelineParetoSolvesOncePerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 4; trial++ {
		p, pl := benchShaped(rng)
		before := PipelineDPSolves()
		front := PipelinePareto(p, pl, trial%2 == 0)
		if solves := PipelineDPSolves() - before; solves != int64(len(front)) {
			t.Errorf("trial %d: %d DP solves for a front of %d points", trial, solves, len(front))
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
// leaves the solver as good as new: the next Front and
// PeriodUnderLatency on it equal a fresh solver's.
func TestPipelineFrontCancellation(t *testing.T) {
	p, pl := benchShaped(rand.New(rand.NewSource(65)))
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
		got, err := pp.Front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("front after a pass cut at poll %d:\n%v\nfresh:\n%v", n, got, want)
		}
		for _, b := range bounds {
			res, ok, err := pp.PeriodUnderLatency(context.Background(), b)
			ref, refOK, _ := fresh.PeriodUnderLatency(context.Background(), b)
			if err != nil || ok != refOK || !reflect.DeepEqual(res, ref) {
				t.Fatalf("PeriodUnderLatency(%v) after a pass cut at poll %d: (%v, %v, %v), fresh (%v, %v)", b, n, res, ok, err, ref, refOK)
			}
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
	return NewForkJoinPrepared(fj, pl, dp).Front, func() []mapping.Cost { return resultCosts(ForkJoinPareto(fj, pl, dp)) }
}

func resultCosts[M any](rs []Result[M]) []mapping.Cost {
	out := make([]mapping.Cost, len(rs))
	for k, r := range rs {
		out[k] = r.Cost
	}
	return out
}

// TestScanFrontMatchesEnumeration: the fork and fork-join passes' fronts
// are the enumerate-then-filter fronts of ForkPareto and ForkJoinPareto,
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
		want := oracle()
		if len(got) != len(want) {
			t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
		}
		for k := range got {
			if !numeric.Eq(got[k].Period, want[k].Period) || !numeric.Eq(got[k].Latency, want[k].Latency) {
				t.Fatalf("trial %d: front %v, enumeration %v", trial, got, want)
			}
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
