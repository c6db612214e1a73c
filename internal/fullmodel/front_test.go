package fullmodel

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/numeric"
)

// enumerateFront is the enumerate-then-filter front of a comm pipeline:
// the cost of every interval mapping, then the costs no other cost
// dominates with a strict gain on one criterion, one per (period,
// latency) pair, by increasing period.
func enumerateFront(p Pipeline, pl Platform) []Cost {
	var all []Cost
	var cur Mapping
	var walk func(i, mask int)
	walk = func(i, mask int) {
		if i == p.Stages() {
			all = append(all, evalTrusted(p, pl, cur))
			return
		}
		for j := i; j < p.Stages(); j++ {
			for u := 0; u < pl.Processors(); u++ {
				if mask&(1<<u) != 0 {
					continue
				}
				cur.Bounds, cur.Alloc = append(cur.Bounds, j+1), append(cur.Alloc, u)
				walk(j+1, mask|1<<u)
				cur.Bounds, cur.Alloc = cur.Bounds[:len(cur.Bounds)-1], cur.Alloc[:len(cur.Alloc)-1]
			}
		}
	}
	walk(0, 0)
	var front []Cost
	for _, c := range all {
		keep := true
		for _, d := range all {
			if numeric.LessEq(d.Period, c.Period) && numeric.LessEq(d.Latency, c.Latency) &&
				(numeric.Less(d.Period, c.Period) || numeric.Less(d.Latency, c.Latency)) {
				keep = false
				break
			}
		}
		for _, d := range front {
			keep = keep && !(numeric.Eq(d.Period, c.Period) && numeric.Eq(d.Latency, c.Latency))
		}
		if keep {
			k := len(front)
			front = append(front, c)
			for ; k > 0 && front[k].Period < front[k-1].Period; k-- {
				front[k], front[k-1] = front[k-1], front[k]
			}
		}
	}
	return front
}

// TestCommFrontMatchesEnumeration: the interval scan's front pass
// returns the enumerate-then-filter front, point for point within the
// tolerance, on heterogeneous and homogeneous speeds under uniform and
// per-link bandwidths.
func TestCommFrontMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 60; trial++ {
		p := randomCommPipeline(rng, 1+rng.Intn(6))
		pl := randomHetPlatform(rng, 1+rng.Intn(4))
		pp, err := NewPipelinePrepared(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pp.Front(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := enumerateFront(p, pl)
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

// pollCountCtx is a context whose Err reports cancellation from its
// n-th call on, and whose Done never fires: polled by the front pass,
// it cuts the pass at its n-th poll.
type pollCountCtx struct {
	context.Context
	polls, n int
}

func (c *pollCountCtx) Done() <-chan struct{}       { return nil }
func (c *pollCountCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCommFrontCancellation: a front pass cut at any of its polls
// returns the context's error and no front, and the next pass on the
// same solver returns the whole front; a bounded solve after it is the
// fresh solver's.
func TestCommFrontCancellation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(69))
	p := randomCommPipeline(rng, 6)
	pl := randomBandwidth(rng, 6).Apply([]float64{5, 4, 3, 2, 1, 3})
	newSolver := func() *PipelinePrepared {
		pp, err := NewPipelinePrepared(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	counter := &pollCountCtx{Context: ctx, n: int(^uint(0) >> 1)}
	want, err := newSolver().Front(counter)
	if err != nil {
		t.Fatal(err)
	}
	if counter.polls < 3 {
		t.Fatalf("the pass polled %d times; the instance is too small to cut mid-pass", counter.polls)
	}
	t.Logf("%d polls, %d points", counter.polls, len(want))
	goal := Goal{MinimizePeriod: true, LatencyCap: want[len(want)/2].Latency}
	wantM, wantC, _, err := newSolver().SolveExact(ctx, goal)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= counter.polls; n++ {
		pp := newSolver()
		if front, err := pp.Front(&pollCountCtx{Context: ctx, n: n}); !errors.Is(err, context.Canceled) || front != nil {
			t.Fatalf("pass cut at poll %d returned (%v, %v), want (nil, context.Canceled)", n, front, err)
		}
		got, err := pp.Front(ctx)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("front after a pass cut at poll %d: (%v, %v), want %v", n, got, err, want)
		}
		m, c, _, err := pp.SolveExact(ctx, goal)
		if err != nil || c != wantC || !reflect.DeepEqual(m, wantM) {
			t.Fatalf("bounded solve after a pass cut at poll %d: (%v, %v, %v), fresh (%v, %v)", n, m, c, err, wantM, wantC)
		}
	}
}
