package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/instance"
)

// The past-caps corpus holds instances that are solved heuristically at
// the default exhaustive limits and exactly at raised ones, drawn with
// the benchmark's generators (integer weights in [1, 10], speeds in
// [1, 5], data-parallelism where the kind has it) in four shapes: a
// fork with a root and 7 leaves on 7 processors, a fork-join with 5
// leaves on 6, a pipeline of 10 stages on 12, and an SP DAG of 8 steps
// on 6. Each record holds the instance, the raised limits, the exact
// front under them (period, latency), and what the candidate-period
// scan that preceded the walk achieved at the default limits on a
// 2-worker engine: its cover factor against the exact front and its
// engine solves per sweep.
const pastCapsPath = "testdata/past_caps.ndjson"

// pastCapsCase is one record of the past-caps corpus.
type pastCapsCase struct {
	Shape         string            `json:"shape"`
	Instance      instance.Instance `json:"instance"`
	PipelineProcs int               `json:"pipelineProcs,omitempty"`
	ForkStages    int               `json:"forkStages,omitempty"`
	ForkProcs     int               `json:"forkProcs,omitempty"`
	Exact         [][2]float64      `json:"exact"`
	ScanEps       float64           `json:"scanEps"`
	ScanSolves    int               `json:"scanSolves"`
}

// coverEps is the least ε ≥ 0 such that every point of exact is weakly
// dominated by a point of front scaled by 1 + ε in both period and
// latency: 0 when front covers the exact front, +Inf when it is empty.
func coverEps(front []core.Solution, exact [][2]float64) float64 {
	eps := 0.0
	for _, e := range exact {
		best := math.Inf(1)
		for _, a := range front {
			best = math.Min(best, math.Max(a.Cost.Period/e[0], a.Cost.Latency/e[1]))
		}
		eps = math.Max(eps, best-1)
	}
	return eps
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// TestPastCapsWalkCoversLikeScan: past the exhaustive limits the walk's
// heuristic fronts cover the exact fronts at least as well as the
// candidate scan did — per shape, the median cover factor is no worse
// and the mean at most 0.01 worse — with at least ten times fewer
// engine solves per sweep.
func TestPastCapsWalkCoversLikeScan(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 96 instances past the exhaustive limits")
	}
	f, err := os.Open(pastCapsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type tally struct {
		walk, scan                []float64
		walkSolves, scanSolves, n int
	}
	shapes := map[string]*tally{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var c pastCapsCase
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		pr, err := c.Instance.Problem()
		if err != nil {
			t.Fatal(err)
		}
		e := New(2)
		front, err := e.ParetoFront(context.Background(), pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !core.FrontIsMonotone(front) {
			t.Errorf("%s: walked front is not monotone: %v", c.Shape, front)
		}
		s := shapes[c.Shape]
		if s == nil {
			s = &tally{}
			shapes[c.Shape] = s
			order = append(order, c.Shape)
		}
		s.walk = append(s.walk, coverEps(front, c.Exact))
		s.scan = append(s.scan, c.ScanEps)
		s.walkSolves += int(e.Stats().Misses)
		s.scanSolves += c.ScanSolves
		s.n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("corpus holds %d shapes, want 4", len(order))
	}
	for _, name := range order {
		s := shapes[name]
		t.Logf("%s (%d instances): median ε walk %.3f scan %.3f, mean ε walk %.3f scan %.3f, solves per sweep walk %.1f scan %.1f",
			name, s.n, median(s.walk), median(s.scan), mean(s.walk), mean(s.scan),
			float64(s.walkSolves)/float64(s.n), float64(s.scanSolves)/float64(s.n))
		if s.n < 20 {
			t.Errorf("%s: %d instances, want at least 20", name, s.n)
		}
		if median(s.walk) > median(s.scan) {
			t.Errorf("%s: median ε %.4f of the walk exceeds the scan's %.4f", name, median(s.walk), median(s.scan))
		}
		if mean(s.walk) > mean(s.scan)+0.01 {
			t.Errorf("%s: mean ε %.4f of the walk exceeds the scan's %.4f by more than 0.01", name, mean(s.walk), mean(s.scan))
		}
		if 10*s.walkSolves > s.scanSolves {
			t.Errorf("%s: the walk made %d engine solves, not 10× below the scan's %d", name, s.walkSolves, s.scanSolves)
		}
	}
}
