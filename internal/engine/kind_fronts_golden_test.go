package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/instance"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The kind front corpus pins the exact Pareto sweeps of the fork,
// fork-join and comm-pipeline scans to fronts recorded from the
// bisection sweep that preceded their one-pass fronts: bench-shaped
// instances (forks with 5 leaves on 4 processors and fork-joins with 4
// leaves on 4, both heterogeneous with data-parallelism; comm-pipelines
// with 6 stages on 5 processors and per-link bandwidths), variants on a
// homogeneous platform, with equal weights and without data-parallelism,
// and the fork-join staging instance of the server's streaming tests
// under its raised limits. Each record holds the wire instance, the
// raised limits when there are any, and the front in the wire encoding,
// whose floats round-trip bit for bit; the test re-sweeps every instance
// at one and three workers and compares the encoded fronts byte for
// byte.
//
// Do not regenerate the corpus to absorb a diff: a mismatch means the
// sweep changed its answer.
var writeKindFrontGolden = flag.Bool("write-golden-kind-fronts", false, "rewrite testdata/kind_fronts.ndjson from the current sweep")

const kindFrontGoldenPath = "testdata/kind_fronts.ndjson"

// kindFrontCase is one record of the kind front corpus.
type kindFrontCase struct {
	Instance  instance.Instance       `json:"instance"`
	MaxStages int                     `json:"maxStages,omitempty"`
	MaxProcs  int                     `json:"maxProcs,omitempty"`
	Front     []instance.SolutionJSON `json:"front"`
}

func (c kindFrontCase) problem(t *testing.T) core.Problem {
	t.Helper()
	pr, err := c.Instance.Problem()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func (c kindFrontCase) options() core.Options {
	return core.Options{MaxExhaustiveForkStages: c.MaxStages, MaxExhaustiveForkProcs: c.MaxProcs}
}

func kindWeights(r *rand.Rand, n int, hom bool) []float64 {
	ws := make([]float64, n)
	w := float64(1 + r.Intn(10))
	for i := range ws {
		if !hom {
			w = float64(1 + r.Intn(10))
		}
		ws[i] = w
	}
	return ws
}

func kindData(r *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + r.Intn(5))
	}
	return d
}

func kindPlatform(r *rand.Rand, p int, hom bool) platform.Platform {
	if hom {
		return platform.Homogeneous(p, float64(1+r.Intn(5)))
	}
	return platform.Random(r, p, 5)
}

// kindCorpusProblems draws the corpus instances, in record order.
func kindCorpusProblems() []kindFrontCase {
	r := rand.New(rand.NewSource(28))
	var out []kindFrontCase
	add := func(pr core.Problem) {
		pr.Objective = core.MinPeriod
		out = append(out, kindFrontCase{Instance: instance.FromProblem(pr)})
	}
	// variants: heterogeneous with data-parallelism ten times, then twice
	// each on a homogeneous platform, with equal weights, and without
	// data-parallelism.
	type variant struct{ homPlat, homGraph, dp bool }
	var variants []variant
	for i := 0; i < 10; i++ {
		variants = append(variants, variant{false, false, true})
	}
	variants = append(variants,
		variant{true, false, true}, variant{true, false, true},
		variant{false, true, true}, variant{false, true, true},
		variant{false, false, false}, variant{false, false, false})
	for _, v := range variants {
		g := workflow.NewFork(float64(1+r.Intn(10)), kindWeights(r, 5, v.homGraph)...)
		add(core.Problem{Fork: &g, Platform: kindPlatform(r, 4, v.homPlat), AllowDataParallel: v.dp})
	}
	for _, v := range variants {
		g := workflow.NewForkJoin(float64(1+r.Intn(10)), float64(1+r.Intn(10)), kindWeights(r, 4, v.homGraph)...)
		add(core.Problem{ForkJoin: &g, Platform: kindPlatform(r, 4, v.homPlat), AllowDataParallel: v.dp})
	}
	// comm-pipelines: per-link bandwidths ten times, then twice each on
	// homogeneous speeds and with equal weights.
	for _, v := range variants[:14] {
		g := fullmodel.NewPipeline(kindWeights(r, 6, v.homGraph), kindData(r, 7))
		bw := &fullmodel.Bandwidth{Links: make([][]float64, 5), In: kindData(r, 5), Out: kindData(r, 5)}
		for u := range bw.Links {
			bw.Links[u] = kindData(r, 5)
			bw.Links[u][u] = 0
		}
		add(core.Problem{CommPipeline: &g, Platform: kindPlatform(r, 5, v.homPlat), Bandwidth: bw})
	}
	// The fork-join staging instance of the server's streaming tests.
	fj := workflow.NewForkJoin(5, 4, 7, 3, 9, 4, 6)
	add(core.Problem{ForkJoin: &fj, Platform: platform.New(5, 4, 3, 2, 1, 3, 2), AllowDataParallel: true})
	out[len(out)-1].MaxStages, out[len(out)-1].MaxProcs = 7, 7
	return out
}

// sweepKindCase sweeps one record's instance and renders its line.
func sweepKindCase(t *testing.T, workers int, c kindFrontCase) []byte {
	t.Helper()
	front, err := New(workers).ParetoFront(context.Background(), c.problem(t), c.options())
	if err != nil {
		t.Fatal(err)
	}
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

func TestKindFrontGoldenCorpus(t *testing.T) {
	if *writeKindFrontGolden {
		var buf bytes.Buffer
		for _, c := range kindCorpusProblems() {
			buf.Write(sweepKindCase(t, 1, c))
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(kindFrontGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(kindFrontGoldenPath)
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
	if want := len(kindCorpusProblems()); len(lines) != want {
		t.Fatalf("corpus holds %d records, want %d", len(lines), want)
	}
	for _, workers := range []int{1, 3} {
		for i, want := range lines {
			var c kindFrontCase
			if err := json.Unmarshal(want, &c); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			c.Front = nil
			if got := sweepKindCase(t, workers, c); !bytes.Equal(got, want) {
				t.Errorf("record %d, %d workers: front diverges from the recorded sweep\nwant %s\ngot  %s", i, workers, want, got)
			}
		}
	}
}

// TestEngineParetoMatchesSerialKinds: on random fork, fork-join and
// comm-pipeline instances of the bench's shapes and smaller, on
// homogeneous and heterogeneous platforms, with data-parallelism on and
// off, the engine's sweep (the front pass, then one bounded solve per
// point) returns the front of the serial core.ParetoFront, which walks
// the two bounded solves, at one and three workers: same costs, same
// mappings, same metadata.
func TestEngineParetoMatchesSerialKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 24; trial++ {
		homPlat, dp := trial%4 == 3, trial%2 == 0
		var pr core.Problem
		switch trial % 3 {
		case 0:
			g := workflow.NewFork(float64(1+rng.Intn(10)), kindWeights(rng, 2+rng.Intn(4), false)...)
			pr = core.Problem{Fork: &g, Platform: kindPlatform(rng, 2+rng.Intn(3), homPlat), AllowDataParallel: dp}
		case 1:
			g := workflow.NewForkJoin(float64(1+rng.Intn(10)), float64(1+rng.Intn(10)), kindWeights(rng, 2+rng.Intn(3), false)...)
			pr = core.Problem{ForkJoin: &g, Platform: kindPlatform(rng, 2+rng.Intn(3), homPlat), AllowDataParallel: dp}
		default:
			n, p := 3+rng.Intn(4), 3+rng.Intn(3)
			g := fullmodel.NewPipeline(kindWeights(rng, n, false), kindData(rng, n+1))
			bw := &fullmodel.Bandwidth{Links: make([][]float64, p), In: kindData(rng, p), Out: kindData(rng, p)}
			for u := range bw.Links {
				bw.Links[u] = kindData(rng, p)
				bw.Links[u][u] = 0
			}
			pr = core.Problem{CommPipeline: &g, Platform: kindPlatform(rng, p, homPlat), Bandwidth: bw}
		}
		serial, err := core.ParetoFront(pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			front, err := New(workers).ParetoFront(context.Background(), pr, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(front) == 0 || !reflect.DeepEqual(front, serial) {
				t.Errorf("trial %d, %d workers: engine front diverges from serial\nserial: %v\nengine: %v", trial, workers, serial, front)
			}
		}
	}
}
