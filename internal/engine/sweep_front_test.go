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
// pass's lists — at every worker count, and reports its one unit, the
// pass, resolved from its first point on.
// Solve counts are deterministic where wall time is not.
func TestSweepFrontNoDPSolves(t *testing.T) {
	cases := frontCorpusInstances()
	cases = append(cases[:6], cases[len(cases)-1])
	for _, workers := range []int{1, 3} {
		for i, c := range cases {
			before := exhaustive.PipelineDPSolves()
			e := New(workers)
			points, stats := collectSweep(t, e, c.problem(), core.Options{})
			solves := exhaustive.PipelineDPSolves() - before
			if len(points) == 0 || solves != 0 {
				t.Errorf("case %d, %d workers: %d DP solves for %d front points", i, workers, solves, len(points))
			}
			if stats.Total != 1 {
				t.Errorf("case %d, %d workers: %d units, want the pass", i, workers, stats.Total)
			}
			for _, p := range points {
				if p.Explored != p.Total {
					t.Errorf("case %d, %d workers: point %d confirmed at %d of %d units", i, workers, p.Index, p.Explored, p.Total)
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
// front point, at every worker count, and reports its one unit, the
// pass, resolved from its first point on.
func TestSweepFrontKindsOneSolvePerPoint(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for i, c := range kindCorpusProblems() {
			e := New(workers)
			points, stats := collectSweep(t, e, c.problem(t), c.options())
			if solves := e.Stats().Misses; len(points) == 0 || solves != uint64(len(points)) {
				t.Errorf("record %d, %d workers: %d engine solves for %d front points", i, workers, solves, len(points))
			}
			if stats.Total != 1 {
				t.Errorf("record %d, %d workers: %d units, want the pass", i, workers, stats.Total)
			}
			for _, p := range points {
				if p.Explored != p.Total {
					t.Errorf("record %d, %d workers: point %d confirmed at %d of %d units", i, workers, p.Index, p.Explored, p.Total)
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
// pass runs returns the context's error, emits no point and reports its
// one unit, the pass, unexplored — it has proven nothing. Its only
// progress report is the 0 of 1 every sweep starts with.
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
		var progress [][2]int
		stats, err := New(2).SweepFront(ctx, c.pr, c.opts, SweepObserver{
			Point:    func(SweepPoint) error { points++; return nil },
			Progress: func(explored, total int) { progress = append(progress, [2]int{explored, total}) },
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
		if stats.Total != 1 {
			t.Errorf("%s: cancelled pass: stats %+v, want 0 of 1 unit explored", name, stats)
		}
		if len(progress) != 1 || progress[0] != [2]int{0, 1} {
			t.Errorf("%s: cancelled pass reported progress %v, want only [0 1]", name, progress)
		}
	}
}
