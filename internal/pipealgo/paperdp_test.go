package pipealgo

import (
	"math/rand"
	"testing"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func TestPaperRecurrenceSection2(t *testing.T) {
	got, err := homLatencyDPPaperRecurrence(example, platform.Homogeneous(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(got, 17) {
		t.Fatalf("paper recurrence latency = %v, want 17", got)
	}
}

func TestPaperRecurrenceMatchesSplitFormulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(6), 9)
		pl := platform.Homogeneous(1+rng.Intn(6), float64(1+rng.Intn(3)))
		paper, err := homLatencyDPPaperRecurrence(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		split, err := HomLatencyDP(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.Eq(paper, split.Cost.Latency) {
			t.Fatalf("trial %d: paper recurrence %v != split formulation %v (pipe=%v p=%d)",
				trial, paper, split.Cost.Latency, p.Weights, pl.Processors())
		}
	}
}

func TestPaperRecurrenceRejectsHetPlatform(t *testing.T) {
	if _, err := homLatencyDPPaperRecurrence(example, platform.New(1, 2)); err != ErrNotHomogeneousPlatform {
		t.Fatalf("err = %v", err)
	}
}

// homLatencyDPPaperRecurrence computes the Theorem 3 optimum with the
// paper's own recurrence, transcribed literally except for one correction:
// the middle case of RR-6308 reads
//
//	L(i, k-1, q-q'-1) + w_k/(q'·s) + L(k+1, j, q-q'-1)
//
// which hands q-q'-1 processors to *both* sides and so does not conserve
// processors; the faithful intent (and what this implementation uses) is
// to split the q-q' remaining processors between the two sides:
//
//	L(i, k-1, q1) + w_k/(q'·s) + L(k+1, j, q-q'-q1)
//
// The function returns only the optimal latency; HomLatencyDP (an
// equivalent reformulation via interval splits) additionally reconstructs
// a mapping. Their agreement on random instances is checked in the tests,
// validating both against each other and, through HomLatencyDP's tests,
// against exhaustive search.
func homLatencyDPPaperRecurrence(p workflow.Pipeline, pl platform.Platform) (float64, error) {
	if err := checkInputs(p, pl); err != nil {
		return 0, err
	}
	if !pl.IsHomogeneous() {
		return 0, ErrNotHomogeneousPlatform
	}
	s := pl.Speeds[0]
	n, maxQ := p.Stages(), pl.Processors()

	prefix := make([]float64, n+1)
	for i, w := range p.Weights {
		prefix[i+1] = prefix[i] + w
	}
	sum := func(i, j int) float64 { return prefix[j+1] - prefix[i] }

	memo := make([]float64, n*n*(maxQ+1))
	seen := make([]bool, len(memo))
	id := func(i, j, q int) int { return (i*n+j)*(maxQ+1) + q }

	var L func(i, j, q int) float64
	L = func(i, j, q int) float64 {
		// Initialization cases of the paper.
		if q == 0 {
			return numeric.Inf
		}
		if i == j {
			return p.Weights[i] / (float64(q) * s)
		}
		if q == 1 || q == 2 {
			return sum(i, j) / s
		}
		k := id(i, j, q)
		if seen[k] {
			return memo[k]
		}
		seen[k] = true
		best := sum(i, j) / s // never data-parallelize anything
		// Case (a): data-parallelize the first stage on q' processors.
		for q1 := 1; q1 <= q-1; q1++ {
			if v := p.Weights[i]/(float64(q1)*s) + L(i+1, j, q-q1); numeric.Less(v, best) {
				best = v
			}
		}
		// Case (b): data-parallelize the last stage on q' processors.
		for q1 := 1; q1 <= q-1; q1++ {
			if v := L(i, j-1, q-q1) + p.Weights[j]/(float64(q1)*s); numeric.Less(v, best) {
				best = v
			}
		}
		// Case (c): data-parallelize a middle stage, splitting the rest.
		for mid := i + 1; mid < j; mid++ {
			for qm := 1; qm <= q-2; qm++ {
				for qLeft := 1; qLeft <= q-qm-1; qLeft++ {
					v := L(i, mid-1, qLeft) + p.Weights[mid]/(float64(qm)*s) + L(mid+1, j, q-qm-qLeft)
					if numeric.Less(v, best) {
						best = v
					}
				}
			}
		}
		memo[k] = best
		return best
	}
	return L(0, n-1, maxQ), nil
}
