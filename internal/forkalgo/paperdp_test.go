package forkalgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestPaperRecurrenceMatchesProductionTheorem11(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(6)
		f := workflow.HomogeneousFork(float64(1+rng.Intn(9)), n, float64(1+rng.Intn(9)))
		pl := platform.Homogeneous(1+rng.Intn(5), float64(1+rng.Intn(3)))
		paper, err := HomForkLatencyPaperRecurrence(f, pl)
		if err != nil {
			t.Fatal(err)
		}
		prod, _, err := Theorem11(joinless(f), false, pl, false, false, numeric.Inf)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.Eq(paper, prod.Cost.Latency) {
			t.Fatalf("trial %d: paper recurrence %v != production %v (w0=%v n=%d w=%v p=%d s=%v)",
				trial, paper, prod.Cost.Latency, f.Root, n, f.Weights, pl.Processors(), pl.Speeds[0])
		}
	}
}

func TestPaperRecurrenceRejectsHetInputs(t *testing.T) {
	if _, err := HomForkLatencyPaperRecurrence(workflow.NewFork(1, 2, 3), platform.Homogeneous(2, 1)); err != ErrNotHomogeneousFork {
		t.Errorf("het fork err = %v", err)
	}
	if _, err := HomForkLatencyPaperRecurrence(workflow.HomogeneousFork(1, 2, 3), platform.New(1, 2)); err != ErrNotHomogeneousPlatform {
		t.Errorf("het platform err = %v", err)
	}
}
