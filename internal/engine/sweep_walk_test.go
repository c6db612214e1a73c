package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// walkedCase is a named sweep input.
type walkedCase struct {
	name string
	pr   core.Problem
}

// walkedInstances are exact instances without a front pass, whose
// sweeps walk the two bounded solves: an irreducible SP DAG, one-port
// forks (one whose every period lies past the communication-free
// candidates), and polynomial cells, over integer and fractional speeds.
func walkedInstances() []walkedCase {
	chorded := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 2},
		workflow.SPStep{Name: "b", Weight: 3, After: workflow.After("a")},
		workflow.SPStep{Name: "c", Weight: 1, After: workflow.After("a", "b")},
		workflow.SPStep{Name: "d", Weight: 2, After: workflow.After("b", "c")},
		workflow.SPStep{Name: "e", Weight: 4, After: workflow.After("d")},
		workflow.SPStep{Name: "f", Weight: 2, After: workflow.After("d", "e")},
	)
	tables := &fullmodel.Bandwidth{
		Links: [][]float64{{0, 1, 5}, {4, 0, 4}, {1, 5, 0}},
		In:    []float64{4, 1, 3},
		Out:   []float64{5, 5, 5},
	}
	pastCands := fullmodel.Fork{Root: 5, In: 5, Out0: 4, Weights: []float64{3, 4, 5, 2}, Outs: []float64{2, 5, 3, 5}}
	oneport := fullmodel.Fork{Root: 2, In: 1, Out0: 1, Weights: []float64{6, 3, 4}, Outs: []float64{1, 2, 1}}
	commPipe := fullmodel.NewPipeline([]float64{3, 1, 2, 5, 2}, []float64{1, 2, 1, 3, 1, 1})
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	fork := workflow.NewFork(3, 5, 5, 5, 5)
	return []walkedCase{
		{"sp", core.Problem{SP: &chorded, Platform: platform.New(5, 3, 2, 1)}},
		{"sp/float-speeds", core.Problem{SP: &chorded, Platform: platform.New(2.5, 1.75, 0.6)}},
		{"comm-fork/past-candidates", core.Problem{CommFork: &pastCands, Bandwidth: tables, Platform: platform.New(4, 4, 5)}},
		{"comm-fork", core.Problem{CommFork: &oneport, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: platform.New(1, 2, 3)}},
		{"comm-fork/float-speeds", core.Problem{CommFork: &oneport, Bandwidth: tables, Platform: platform.New(1.5, 0.8, 2.25)}},
		{"comm-pipeline/hom", core.Problem{CommPipeline: &commPipe, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: platform.Homogeneous(3, 2)}},
		{"pipeline/hom", core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(4, 2), AllowDataParallel: true}},
		{"pipeline/hom-float-speeds", core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(3, 1.5), AllowDataParallel: true}},
		{"fork/hom", core.Problem{Fork: &fork, Platform: platform.Homogeneous(3, 1)}},
	}
}

// TestSweepWalkSolvesPerPoint: a walked sweep makes one min-period solve
// and then three engine solves per front point — the latency-under-period
// solve at the snapped candidate, the point's period-under-latency solve,
// and the period-under-latency solve strictly below its latency that
// finds the next point or ends the walk — at every worker count, and
// builds its candidate-period set once.
func TestSweepWalkSolvesPerPoint(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, c := range walkedInstances() {
			e := New(workers)
			points, _ := collectSweep(t, e, c.pr, core.Options{})
			if want := uint64(1 + 3*len(points)); len(points) == 0 || e.Stats().Misses != want {
				t.Errorf("%s, %d workers: %d engine solves for %d front points, want %d", c.name, workers, e.Stats().Misses, len(points), want)
			}
			if built := e.candidateSets.Load(); built != 1 {
				t.Errorf("%s, %d workers: %d candidate sets built, want 1", c.name, workers, built)
			}
		}
	}
}

// TestSweepWalkCancelledIsPrefix: a walk whose context is cancelled after
// its k-th point returns the cancellation, having delivered exactly the
// first k points of the full front.
func TestSweepWalkCancelledIsPrefix(t *testing.T) {
	for _, c := range walkedInstances() {
		full, err := New(2).ParetoFront(context.Background(), c.pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(full); k++ {
			ctx, cancel := context.WithCancel(context.Background())
			var got []core.Solution
			_, err := New(2).SweepFront(ctx, c.pr, core.Options{}, SweepObserver{Point: func(p SweepPoint) error {
				got = append(got, p.Solution)
				if len(got) == k {
					cancel()
				}
				return nil
			}})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, k=%d: cancelled walk returned %v, want context.Canceled", c.name, k, err)
			}
			if !reflect.DeepEqual(got, full[:k]) {
				t.Errorf("%s, k=%d: cancelled walk delivered %v, want the prefix %v", c.name, k, got, full[:k])
			}
		}
	}
}
