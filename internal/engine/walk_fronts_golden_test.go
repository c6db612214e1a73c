package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/instance"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The walked front corpus pins the exact sweeps without a front pass to
// fronts recorded from the serial candidate-period sweep of
// core.ParetoFront that preceded the walk: irreducible SP DAGs over
// integer and fractional speeds, the polynomial pipeline, fork and
// fork-join cells (homogeneous platforms, and equal stage weights on a
// heterogeneous one), and fully homogeneous comm-pipelines. One-port
// forks are left out: the candidate sweep skipped their points whose
// periods carry transfer terms (see walkedInstances). Each record holds
// the wire instance and its front in the wire encoding, whose floats
// round-trip bit for bit; the test re-sweeps every instance serially
// (core.ParetoFront) and on the engine at one and three workers, and
// compares the encoded fronts byte for byte.
//
// Do not regenerate the corpus to absorb a diff: a mismatch means the
// sweep changed its answer.
var writeWalkFrontGolden = flag.Bool("write-golden-walk-fronts", false, "rewrite testdata/walk_fronts.ndjson from the serial sweep")

const walkFrontGoldenPath = "testdata/walk_fronts.ndjson"

// walkFrontCase is one record of the walked front corpus.
type walkFrontCase struct {
	Instance instance.Instance       `json:"instance"`
	Front    []instance.SolutionJSON `json:"front"`
}

// walkedSweep reports whether the engine sweeps pr by the walk: both
// bounded objectives are solved exactly and no prepared solver of the
// instance has a front pass.
func walkedSweep(pr core.Problem) bool {
	lup, pul := pr, pr
	lup.Objective, lup.Bound = core.LatencyUnderPeriod, 1
	pul.Objective, pul.Bound = core.PeriodUnderLatency, 1
	if !core.ExactlySolvable(lup, core.Options{}) || !core.ExactlySolvable(pul, core.Options{}) {
		return false
	}
	ps, ok := core.Prepare(pr, core.Options{})
	return !ok || !ps.HasFront()
}

// quarterSpeeds draws p fractional speeds in [0.5, 4.75], in steps of
// a quarter.
func quarterSpeeds(r *rand.Rand, p int) platform.Platform {
	s := make([]float64, p)
	for i := range s {
		s[i] = float64(2+r.Intn(18)) / 4
	}
	return platform.New(s...)
}

// walkCorpusProblems draws the corpus instances, in record order: each
// shape is drawn again until the engine walks the instance's sweep.
func walkCorpusProblems() []walkFrontCase {
	r := rand.New(rand.NewSource(34))
	homPlat := func(p int, frac bool) platform.Platform {
		if frac {
			return platform.Homogeneous(p, float64(2+r.Intn(18))/4)
		}
		return platform.Homogeneous(p, float64(1+r.Intn(5)))
	}
	shapes := []struct {
		n    int
		draw func(i int) core.Problem
	}{
		{10, func(int) core.Problem {
			g := workflow.RandomSP(r, 5+r.Intn(3), 10, 4, 3)
			return core.Problem{SP: &g, Platform: kindPlatform(r, 3+r.Intn(3), false)}
		}},
		{10, func(int) core.Problem {
			g := workflow.RandomSP(r, 5+r.Intn(3), 10, 4, 3)
			return core.Problem{SP: &g, Platform: quarterSpeeds(r, 3+r.Intn(3))}
		}},
		{8, func(i int) core.Problem {
			g := workflow.NewPipeline(kindWeights(r, 4+r.Intn(4), false)...)
			return core.Problem{Pipeline: &g, Platform: homPlat(3+r.Intn(4), i >= 4), AllowDataParallel: i%2 == 0}
		}},
		{4, func(int) core.Problem {
			g := workflow.NewPipeline(kindWeights(r, 4+r.Intn(4), true)...)
			return core.Problem{Pipeline: &g, Platform: kindPlatform(r, 3+r.Intn(3), false)}
		}},
		{6, func(i int) core.Problem {
			g := workflow.NewFork(float64(1+r.Intn(10)), kindWeights(r, 3+r.Intn(4), true)...)
			return core.Problem{Fork: &g, Platform: homPlat(3+r.Intn(3), i >= 3), AllowDataParallel: i%2 == 0}
		}},
		{6, func(i int) core.Problem {
			g := workflow.NewForkJoin(float64(1+r.Intn(10)), float64(1+r.Intn(10)), kindWeights(r, 3+r.Intn(3), true)...)
			return core.Problem{ForkJoin: &g, Platform: homPlat(3+r.Intn(3), i >= 3), AllowDataParallel: i%2 == 0}
		}},
		{6, func(i int) core.Problem {
			n := 4 + r.Intn(3)
			g := fullmodel.NewPipeline(kindWeights(r, n, false), kindData(r, n+1))
			return core.Problem{CommPipeline: &g, Platform: homPlat(3+r.Intn(2), i >= 3), Bandwidth: &fullmodel.Bandwidth{Uniform: float64(1 + r.Intn(5))}}
		}},
	}
	var out []walkFrontCase
	for _, s := range shapes {
		for i, tries := 0, 0; i < s.n; tries++ {
			if tries == 1000 {
				panic("walkCorpusProblems: no walked instance of the shape in 1000 draws")
			}
			pr := s.draw(i)
			pr.Objective = core.MinPeriod
			if pr.Validate() != nil || !walkedSweep(pr) {
				continue
			}
			out = append(out, walkFrontCase{Instance: instance.FromProblem(pr)})
			i++
		}
	}
	return out
}

// encodeWalkCase renders one record line.
func encodeWalkCase(t *testing.T, c walkFrontCase, front []core.Solution) []byte {
	t.Helper()
	c.Front = make([]instance.SolutionJSON, len(front))
	for i, sol := range front {
		c.Front[i] = instance.FromSolution(sol)
	}
	line, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func TestWalkFrontGoldenCorpus(t *testing.T) {
	if *writeWalkFrontGolden {
		var buf bytes.Buffer
		for _, c := range walkCorpusProblems() {
			pr, err := c.Instance.Problem()
			if err != nil {
				t.Fatal(err)
			}
			front, err := core.ParetoFront(pr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(encodeWalkCase(t, c, front))
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(walkFrontGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(walkFrontGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(walkCorpusProblems()); len(lines) != want {
		t.Fatalf("corpus holds %d records, want %d", len(lines), want)
	}
	for i, want := range lines {
		var c walkFrontCase
		if err := json.Unmarshal(want, &c); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		pr, err := c.Instance.Problem()
		if err != nil {
			t.Fatal(err)
		}
		serial, err := core.ParetoFront(pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeWalkCase(t, c, serial); !bytes.Equal(got, want) {
			t.Errorf("record %d, serial: front diverges from the recorded sweep\nwant %s\ngot  %s", i, want, got)
		}
		for _, workers := range []int{1, 3} {
			front, err := New(workers).ParetoFront(context.Background(), pr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeWalkCase(t, c, front); !bytes.Equal(got, want) {
				t.Errorf("record %d, %d workers: front diverges from the recorded sweep\nwant %s\ngot  %s", i, workers, want, got)
			}
		}
	}
}
