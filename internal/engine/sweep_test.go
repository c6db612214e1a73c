package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// collectSweep runs SweepFront and returns the emitted points in order.
func collectSweep(t *testing.T, e *Engine, pr core.Problem, opts core.Options) ([]SweepPoint, SweepStats) {
	t.Helper()
	var points []SweepPoint
	stats, err := e.SweepFront(context.Background(), pr, opts, SweepObserver{Point: func(p SweepPoint) error {
		points = append(points, p)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return points, stats
}

// TestSweepFrontMatchesParetoFront: on a randomized corpus the emitted
// point sequence is exactly the ParetoFront slice (which in turn matches
// the serial core front — TestEngineParetoMatchesSerial), with sequential
// indices and consistent stats.
func TestSweepFrontMatchesParetoFront(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		pr := randomProblem(rng)
		e := New(4)
		want, err := e.ParetoFront(context.Background(), pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		points, stats := collectSweep(t, New(4), pr, core.Options{})
		got := make([]core.Solution, len(points))
		for i, p := range points {
			if p.Index != i {
				t.Errorf("trial %d: point %d carries index %d", trial, i, p.Index)
			}
			if p.Explored > p.Total {
				t.Errorf("trial %d: point %d explored %d of %d", trial, i, p.Explored, p.Total)
			}
			got[i] = p.Solution
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("trial %d: streamed front diverges from ParetoFront\nslice:  %v\nstream: %v", trial, want, got)
		}
		if stats.Points != len(points) || stats.Explored > stats.Total {
			t.Errorf("trial %d: inconsistent stats %+v for %d points", trial, stats, len(points))
		}
		if stats.Total == 0 || stats.Explored != stats.Total {
			t.Errorf("trial %d: completed sweep left %d of %d units unexplored", trial, stats.Total-stats.Explored, stats.Total)
		}
	}
}

// TestSweepFrontEmitsBeforeSweepCompletes: on a budget-staged slow sweep
// the first point must be confirmed while the walk still has steps to
// take — the defining property of the incremental generator. The point's
// own progress counter proves it without wall-clock assertions.
func TestSweepFrontEmitsBeforeSweepCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pipe := workflow.RandomPipeline(rng, 6, 9)
	pr := core.Problem{
		Pipeline:          &pipe,
		Platform:          platform.Random(rng, 4, 5),
		AllowDataParallel: true,
		Objective:         core.MinPeriod,
	}
	e := New(2)
	var first *SweepPoint
	stop := errors.New("first point seen")
	_, err := e.SweepFront(context.Background(), pr, core.Options{AnytimeBudget: 100 * time.Millisecond}, SweepObserver{
		Point: func(p SweepPoint) error {
			cp := p
			first = &cp
			return stop // stop the sweep at the first confirmed point
		},
	})
	if first == nil {
		t.Fatal("sweep finished without emitting a point")
	}
	if !errors.Is(err, stop) {
		t.Fatalf("stopped sweep returned %v, want the observer's stop error", err)
	}
	if first.Explored >= first.Total {
		t.Errorf("first point confirmed only after the whole sweep (explored %d of %d)", first.Explored, first.Total)
	}
	if !first.Solution.Feasible {
		t.Error("confirmed point is infeasible")
	}
}

// TestSweepFrontPartialIsPrefix: a sweep stopped by its observer has
// delivered exactly a prefix of the full front, in increasing-period
// order — the partial-front contract streaming clients rely on.
func TestSweepFrontPartialIsPrefix(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.New(3, 2, 2, 1), AllowDataParallel: true}

	full, err := New(4).ParetoFront(context.Background(), pr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("staging instance has a front of %d points, need >= 2", len(full))
	}
	stop := errors.New("enough")
	for k := 1; k < len(full); k++ {
		var got []core.Solution
		_, err := New(4).SweepFront(context.Background(), pr, core.Options{}, SweepObserver{Point: func(p SweepPoint) error {
			got = append(got, p.Solution)
			if len(got) == k {
				return stop
			}
			return nil
		}})
		if !errors.Is(err, stop) {
			t.Fatalf("k=%d: sweep returned %v, want the observer's stop error", k, err)
		}
		if !reflect.DeepEqual(got, full[:k]) {
			t.Errorf("k=%d: partial front is not a prefix of the full front\nfull:    %v\npartial: %v", k, full, got)
		}
		for i := 1; i < len(got); i++ {
			if !numeric.Less(got[i-1].Cost.Period, got[i].Cost.Period) {
				t.Errorf("k=%d: partial front not in increasing-period order", k)
			}
		}
	}
}

// TestSweepFrontProgress: a sweep first reports 0 of 1 units; the
// explored count never decreases, across progress reports and confirmed
// points alike, and is at most one unit behind the total; a completed
// sweep has explored every unit — the pass of a front-pass pipeline
// sweep, one step per point of the walked sweeps.
func TestSweepFrontProgress(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4)
	cases := append([]walkedCase{{"pipeline", core.Problem{Pipeline: &pipe, Platform: platform.New(2, 1, 1), AllowDataParallel: true}}}, walkedInstances()...)
	for i, c := range cases {
		var last, calls int
		advance := func(explored, total int, what string) {
			if explored < last || explored > total || total > explored+1 {
				t.Errorf("%s: %s reports %d of %d explored after %d", c.name, what, explored, total, last)
			}
			last = explored
		}
		var points []SweepPoint
		stats, err := New(2).SweepFront(context.Background(), c.pr, core.Options{}, SweepObserver{
			Point: func(p SweepPoint) error {
				advance(p.Explored, p.Total, "a point")
				points = append(points, p)
				return nil
			},
			Progress: func(explored, total int) {
				if calls++; calls == 1 && (explored != 0 || total != 1) {
					t.Errorf("%s: first progress report %d of %d, want 0 of 1", c.name, explored, total)
				}
				advance(explored, total, "progress")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatalf("%s: progress callback never invoked", c.name)
		}
		if last != stats.Total || stats.Explored != stats.Total {
			t.Errorf("%s: completed sweep reports explored %d / stats %+v", c.name, last, stats)
		}
		if want := len(points); i == 0 && stats.Total != 1 || i > 0 && stats.Total != want {
			t.Errorf("%s: completed sweep of %d points counts %d units", c.name, want, stats.Total)
		}
		if len(points) != stats.Points {
			t.Errorf("%s: emitted %d points, stats say %d", c.name, len(points), stats.Points)
		}
	}
}

// TestSweepFrontBudgeted: a budgeted NP-hard sweep streams a monotone
// front (core.FrontIsMonotone) of anytime-certified points.
func TestSweepFrontBudgeted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pipe := workflow.RandomPipeline(rng, 6, 9)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Random(rng, 4, 5), AllowDataParallel: true}
	points, stats := collectSweep(t, New(4), pr, core.Options{AnytimeBudget: 50 * time.Millisecond})
	if len(points) == 0 {
		t.Fatal("budgeted sweep emitted no points")
	}
	front := make([]core.Solution, len(points))
	for i, p := range points {
		if !p.Solution.Feasible {
			t.Errorf("point %d is infeasible: %+v", i, p.Solution.Cost)
		}
		if p.Solution.Anytime && p.Solution.Gap < 0 {
			t.Errorf("point %d has negative gap %g", i, p.Solution.Gap)
		}
		front[i] = p.Solution
	}
	if !core.FrontIsMonotone(front) {
		t.Errorf("budgeted front breaks the front invariant: %v", front)
	}
	if stats.Explored != stats.Total {
		t.Errorf("completed sweep explored %d of %d", stats.Explored, stats.Total)
	}
}

// TestSweepFrontRequiresObserver: a missing Point callback is an error,
// not a silent no-op.
func TestSweepFrontRequiresObserver(t *testing.T) {
	pipe := workflow.NewPipeline(1)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(1, 1)}
	if _, err := New(1).SweepFront(context.Background(), pr, core.Options{}, SweepObserver{}); err == nil {
		t.Fatal("nil Point observer accepted")
	}
}
