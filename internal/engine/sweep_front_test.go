package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/exhaustive"
)

// TestSweepFrontNoDPSolves: a sweep of an exact pipeline instance runs
// one front pass and no scalar DP solve — each point's solve walks the
// pass's lists — at every worker count, and reports every candidate
// resolved from its first point on. Solve counts are deterministic where
// wall time is not.
func TestSweepFrontNoDPSolves(t *testing.T) {
	cases := frontCorpusInstances()
	cases = append(cases[:6], cases[len(cases)-1])
	for _, workers := range []int{1, 3} {
		for i, c := range cases {
			before := exhaustive.PipelineDPSolves()
			points, stats := collectSweep(t, New(workers), c.problem(), core.Options{})
			solves := exhaustive.PipelineDPSolves() - before
			if len(points) == 0 || solves != 0 {
				t.Errorf("case %d, %d workers: %d DP solves for %d front points", i, workers, solves, len(points))
			}
			for _, p := range points {
				if p.Explored != p.Total {
					t.Errorf("case %d, %d workers: point %d confirmed at %d of %d candidates", i, workers, p.Index, p.Explored, p.Total)
				}
			}
			if stats.Explored != stats.Total {
				t.Errorf("case %d, %d workers: completed sweep explored %d of %d", i, workers, stats.Explored, stats.Total)
			}
		}
	}
}

// TestSweepFrontKindsOneSolvePerPoint: a sweep of an exact fork,
// fork-join or comm-pipeline instance — every record of the kind front
// corpus — runs its front pass and then exactly one engine solve per
// front point, at every worker count, and reports every candidate
// resolved from its first point on.
func TestSweepFrontKindsOneSolvePerPoint(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for i, c := range kindCorpusProblems() {
			e := New(workers)
			points, stats := collectSweep(t, e, c.problem(t), c.options())
			if solves := e.Stats().Misses; len(points) == 0 || solves != uint64(len(points)) {
				t.Errorf("record %d, %d workers: %d engine solves for %d front points", i, workers, solves, len(points))
			}
			for _, p := range points {
				if p.Explored != p.Total {
					t.Errorf("record %d, %d workers: point %d confirmed at %d of %d candidates", i, workers, p.Index, p.Explored, p.Total)
				}
			}
			if stats.Explored != stats.Total {
				t.Errorf("record %d, %d workers: completed sweep explored %d of %d", i, workers, stats.Explored, stats.Total)
			}
		}
	}
}

// pollCountCtx is a context whose Err reports cancellation from its
// n-th call on, and whose Done never fires: polled by the front pass's
// stepper, it cancels the sweep in the middle of the pass.
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

// TestSweepFrontCancelledDuringPass: a sweep cancelled while the front
// pass runs returns the context's error, emits no point and reports no
// candidate explored — it has proven nothing.
//
// The pipeline case gives the first corpus instance distinct speeds
// (processor q gains q/16): the pass skips subsets that only relabel
// equal-speed processors, and on its drawn speeds it finishes before
// its third poll.
func TestSweepFrontCancelledDuringPass(t *testing.T) {
	kinds := kindCorpusProblems()
	pipe := frontCorpusInstances()[0]
	pipe.Speeds = append([]float64(nil), pipe.Speeds...)
	for q := range pipe.Speeds {
		pipe.Speeds[q] += float64(q) / 16
	}
	for name, c := range map[string]struct {
		pr   core.Problem
		opts core.Options
	}{
		"pipeline":      {pipe.problem(), core.Options{}},
		"fork":          {kinds[0].problem(t), kinds[0].options()},
		"fork-join":     {kinds[16].problem(t), kinds[16].options()},
		"comm-pipeline": {kinds[32].problem(t), kinds[32].options()},
	} {
		ctx := &pollCountCtx{Context: context.Background(), n: 3}
		var points int
		stats, err := New(2).SweepFront(ctx, c.pr, c.opts, SweepObserver{
			Point: func(SweepPoint) error { points++; return nil },
			Progress: func(explored, total int) {
				t.Errorf("%s: progress %d of %d reported by a cancelled pass", name, explored, total)
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: sweep cancelled during the pass returned %v, want context.Canceled", name, err)
		}
		if ctx.polls != ctx.n {
			t.Fatalf("%s: the pass polled its context %d times, want it stopped at poll %d", name, ctx.polls, ctx.n)
		}
		if points != 0 || stats.Points != 0 || stats.Explored != 0 || stats.Total == 0 {
			t.Errorf("%s: cancelled pass: %d points emitted, stats %+v", name, points, stats)
		}
	}
}
