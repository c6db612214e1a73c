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
	"repliflow/internal/instance"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The pipeline front corpus pins the exact Pareto sweep of the
// heterogeneous pipeline DP to fronts recorded from the bisection sweep
// that preceded the one-pass front: bench-shaped instances (8–10 stages
// on 6–7 heterogeneous processors, the pareto-sweep pipeline shape, with
// data-parallelism on and off) plus the 8-processor instance of
// BenchmarkEngineParetoFront. Each record holds the instance and its
// front in the wire encoding, whose floats round-trip bit for bit; the
// test re-sweeps every instance at one and three workers and compares
// the encoded fronts byte for byte.
//
// Do not regenerate the corpus to absorb a diff: a mismatch means the
// sweep changed its answer.
var writeFrontGolden = flag.Bool("write-golden-fronts", false, "rewrite testdata/pipeline_fronts.ndjson from the current sweep")

const frontGoldenPath = "testdata/pipeline_fronts.ndjson"

// frontCase is one corpus record.
type frontCase struct {
	Weights []float64               `json:"weights"`
	Speeds  []float64               `json:"speeds"`
	DP      bool                    `json:"dp"`
	Front   []instance.SolutionJSON `json:"front"`
}

func (c frontCase) problem() core.Problem {
	p := workflow.NewPipeline(c.Weights...)
	return core.Problem{Pipeline: &p, Platform: platform.New(c.Speeds...), AllowDataParallel: c.DP}
}

// frontCorpusInstances draws the corpus instances: 40 bench-shaped ones,
// redrawn until both the platform and the pipeline are heterogeneous (so
// every sweep probe lands on an NP-hard cell), then the benchmark's.
func frontCorpusInstances() []frontCase {
	r := rand.New(rand.NewSource(24))
	var out []frontCase
	for len(out) < 40 {
		n, p := 8+r.Intn(3), 6+r.Intn(2)
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(1 + r.Intn(10))
		}
		pl := platform.Random(r, p, 5)
		g := workflow.NewPipeline(ws...)
		if pl.IsHomogeneous() || g.IsHomogeneous() {
			continue
		}
		out = append(out, frontCase{Weights: ws, Speeds: pl.Speeds, DP: len(out)%2 == 0})
	}
	return append(out, frontCase{
		Weights: []float64{14, 4, 2, 4, 7, 5, 3, 9},
		Speeds:  []float64{5, 4, 3, 3, 2, 2, 1, 1},
		DP:      true,
	})
}

// encodeFrontCase renders one record line.
func encodeFrontCase(t *testing.T, c frontCase, front []core.Solution) []byte {
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

func TestPipelineFrontGoldenCorpus(t *testing.T) {
	if *writeFrontGolden {
		var buf bytes.Buffer
		for _, c := range frontCorpusInstances() {
			front, err := New(1).ParetoFront(context.Background(), c.problem(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(encodeFrontCase(t, c, front))
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(frontGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(frontGoldenPath)
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
	if len(lines) != 41 {
		t.Fatalf("corpus holds %d records, want 41", len(lines))
	}
	for _, workers := range []int{1, 3} {
		for i, want := range lines {
			var c frontCase
			if err := json.Unmarshal(want, &c); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			front, err := New(workers).ParetoFront(context.Background(), c.problem(), core.Options{})
			if err != nil {
				t.Fatalf("record %d, %d workers: %v", i, workers, err)
			}
			if got := encodeFrontCase(t, c, front); !bytes.Equal(got, want) {
				t.Errorf("record %d, %d workers: front diverges from the recorded sweep\nwant %s\ngot  %s", i, workers, want, got)
			}
		}
	}
}
