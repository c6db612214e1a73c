package incumbent_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// The golden kernel corpus pins every exact search kernel that runs
// through incumbent.Run — the exhaustive pipeline DP, the fork and
// fork-join scans, the irreducible SP block scan and the comm-pipeline
// interval scan — to answers recorded from the independent serial
// implementations that preceded it. Each record holds one
// instance, one goal, the found flag, the exact cost bits and the
// mapping; the test re-solves it at one and at three workers. The
// par-vs-serial identity corpora of each package compare one code path
// against itself; this file compares it against history.
//
// A second corpus, kernels_bench_golden.ndjson, holds instances of the
// solve-nphard shapes (bench/workloads.go's npHardSpecs): forks with 5
// leaves and fork-joins with 4 on 4–5 processors, 6-step SP DAGs on 5
// processors, and 6-stage comm pipelines on 5 processors with per-link
// bandwidths — large enough that the scans' cuts drop most of every
// search. The partition-scan records were recorded from the scans that
// cost every complete mapping, before the cuts existed; the comm records
// from the interval scan before its latency look-ahead.
//
// A third corpus, kernels_fractional_golden.ndjson, holds forks and
// fork-joins with fractional weights and speeds, each under every goal
// and under bounds at its optimum times 1, 1.3 and 1-1e-6. The integer
// corpora sum their block weights exactly in any order; this one pins
// the cost bits that depend on the scans' summation order.
//
// Do not regenerate any corpus to absorb a diff: a mismatch means a
// kernel changed its answer.
var (
	writeGolden      = flag.Bool("write-golden-kernels", false, "rewrite testdata/kernels_golden.ndjson from the current kernels")
	writeBenchGolden = flag.Bool("write-golden-bench-kernels", false, "rewrite testdata/kernels_bench_golden.ndjson from the current kernels")
	writeFracGolden  = flag.Bool("write-golden-fractional-kernels", false, "rewrite testdata/kernels_fractional_golden.ndjson from the current kernels")
)

const (
	goldenPath      = "testdata/kernels_golden.ndjson"
	benchGoldenPath = "testdata/kernels_bench_golden.ndjson"
	fracGoldenPath  = "testdata/kernels_fractional_golden.ndjson"
)

// goldenCase is one corpus record: the instance of exactly one kernel,
// the goal, and the recorded answer.
type goldenCase struct {
	Kernel string  `json:"kernel"`
	Goal   string  `json:"goal"`
	Bound  float64 `json:"bound,omitempty"`
	DP     bool    `json:"dp,omitempty"`

	Pipeline     *workflow.Pipeline  `json:"pipeline,omitempty"`
	Fork         *workflow.Fork      `json:"fork,omitempty"`
	ForkJoin     *workflow.ForkJoin  `json:"forkJoin,omitempty"`
	SP           *workflow.SP        `json:"sp,omitempty"`
	Platform     *platform.Platform  `json:"platform,omitempty"`
	CommPipeline *fullmodel.Pipeline `json:"commPipeline,omitempty"`
	CommPlatform *fullmodel.Platform `json:"commPlatform,omitempty"`

	Found   bool            `json:"found"`
	Period  string          `json:"period"`  // math.Float64bits, hex
	Latency string          `json:"latency"` // math.Float64bits, hex
	Mapping json.RawMessage `json:"mapping"`
}

var goldenGoals = []string{"period", "latency", "lup", "pul"}

func bitsHex(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// answer fills the recorded fields of c from one solve.
func answer(c goldenCase, found bool, period, latency float64, m any) (goldenCase, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return c, err
	}
	c.Found, c.Period, c.Latency, c.Mapping = found, bitsHex(period), bitsHex(latency), raw
	return c, nil
}

// solveGolden solves the instance and goal of c at the given worker
// count and returns c with the answer fields replaced.
func solveGolden(ctx context.Context, c goldenCase, par int) (goldenCase, error) {
	switch c.Kernel {
	case "pipeline":
		pp := exhaustive.NewPipelinePrepared(*c.Pipeline, *c.Platform, c.DP)
		pp.SetParallelism(par)
		var res exhaustive.PipelineResult
		var ok bool
		var err error
		switch c.Goal {
		case "period":
			res, ok, err = pp.Period(ctx)
		case "latency":
			res, ok, err = pp.Latency(ctx)
		case "lup":
			res, ok, err = pp.LatencyUnderPeriod(ctx, c.Bound)
		default:
			res, ok, err = pp.PeriodUnderLatency(ctx, c.Bound)
		}
		if err != nil {
			return c, err
		}
		return answer(c, ok, res.Cost.Period, res.Cost.Latency, res.Mapping)
	case "fork":
		fp := exhaustive.NewForkPrepared(*c.Fork, *c.Platform, c.DP)
		fp.SetParallelism(par)
		var res exhaustive.ForkJoinResult
		var ok bool
		var err error
		switch c.Goal {
		case "period":
			res, ok, err = fp.Period(ctx)
		case "latency":
			res, ok, err = fp.Latency(ctx)
		case "lup":
			res, ok, err = fp.LatencyUnderPeriod(ctx, c.Bound)
		default:
			res, ok, err = fp.PeriodUnderLatency(ctx, c.Bound)
		}
		if err != nil {
			return c, err
		}
		// The fork scan answers as a fork-join without a join.
		return answer(c, ok, res.Cost.Period, res.Cost.Latency, res.Mapping.Fork())
	case "forkjoin":
		fp := exhaustive.NewForkJoinPrepared(*c.ForkJoin, *c.Platform, c.DP)
		fp.SetParallelism(par)
		var res exhaustive.ForkJoinResult
		var ok bool
		var err error
		switch c.Goal {
		case "period":
			res, ok, err = fp.Period(ctx)
		case "latency":
			res, ok, err = fp.Latency(ctx)
		case "lup":
			res, ok, err = fp.LatencyUnderPeriod(ctx, c.Bound)
		default:
			res, ok, err = fp.PeriodUnderLatency(ctx, c.Bound)
		}
		if err != nil {
			return c, err
		}
		return answer(c, ok, res.Cost.Period, res.Cost.Latency, res.Mapping)
	case "sp":
		pp, err := spdecomp.NewPrepared(*c.SP, *c.Platform)
		if err != nil {
			return c, err
		}
		pp.SetParallelism(par)
		goal := map[string]spdecomp.Goal{
			"period":  {},
			"latency": {MinimizeLatency: true},
			"lup":     {MinimizeLatency: true, PeriodCap: c.Bound},
			"pul":     {LatencyCap: c.Bound},
		}[c.Goal]
		blocks, cost, ok, err := pp.Exhaustive(ctx, goal)
		if err != nil {
			return c, err
		}
		return answer(c, ok, cost.Period, cost.Latency, blocks)
	case "comm":
		pp, err := fullmodel.NewPipelinePrepared(*c.CommPipeline, *c.CommPlatform)
		if err != nil {
			return c, err
		}
		pp.SetParallelism(par)
		goal := map[string]fullmodel.Goal{
			"period":  {MinimizePeriod: true},
			"latency": {},
			"lup":     {PeriodCap: c.Bound},
			"pul":     {MinimizePeriod: true, LatencyCap: c.Bound},
		}[c.Goal]
		m, cost, ok, err := pp.SolveExact(ctx, goal)
		if err != nil {
			return c, err
		}
		return answer(c, ok, cost.Period, cost.Latency, m)
	}
	return c, fmt.Errorf("unknown kernel %q", c.Kernel)
}

// goldenInstances draws the corpus instances: seeded, small enough for
// the race detector, large enough that three workers split every kernel
// into many shards.
func goldenInstances() []goldenCase {
	rng := rand.New(rand.NewSource(20261016))
	var out []goldenCase
	for i := 0; i < 24; i++ {
		p := workflow.RandomPipeline(rng, 2+rng.Intn(6), 9)
		pl := platform.Random(rng, 2+rng.Intn(4), 5)
		out = append(out, goldenCase{Kernel: "pipeline", DP: i%2 == 0, Pipeline: &p, Platform: &pl})
	}
	for i := 0; i < 20; i++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		out = append(out, goldenCase{Kernel: "fork", DP: i%2 == 0, Fork: &f, Platform: &pl})
	}
	for i := 0; i < 16; i++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		out = append(out, goldenCase{Kernel: "forkjoin", DP: i%2 == 1, ForkJoin: &fj, Platform: &pl})
	}
	for i := 0; i < 20; i++ {
		g := workflow.RandomSP(rng, 3+rng.Intn(5), 9, 4, 3)
		pl := platform.Random(rng, 2+rng.Intn(3), 5)
		out = append(out, goldenCase{Kernel: "sp", SP: &g, Platform: &pl})
	}
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(5)
		ws, data := make([]float64, n), make([]float64, n+1)
		for k := range ws {
			ws[k] = float64(1 + rng.Intn(9))
		}
		for k := range data {
			data[k] = float64(rng.Intn(5))
		}
		p := fullmodel.NewPipeline(ws, data)
		procs := 2 + rng.Intn(3)
		speeds := make([]float64, procs)
		for k := range speeds {
			speeds[k] = float64(1 + rng.Intn(5))
		}
		bw := fullmodel.Bandwidth{Uniform: float64(1 + rng.Intn(4))}
		if i%2 == 1 {
			bw = fullmodel.Bandwidth{Links: make([][]float64, procs), In: make([]float64, procs), Out: make([]float64, procs)}
			for u := 0; u < procs; u++ {
				bw.Links[u] = make([]float64, procs)
				bw.In[u] = float64(1 + rng.Intn(4))
				bw.Out[u] = float64(1 + rng.Intn(4))
				for v := 0; v < procs; v++ {
					if v != u {
						bw.Links[u][v] = float64(1 + rng.Intn(4))
					}
				}
			}
		}
		pl := bw.Apply(speeds)
		out = append(out, goldenCase{Kernel: "comm", CommPipeline: &p, CommPlatform: &pl})
	}
	return out
}

// benchGoldenInstances draws the bench-shaped corpus instances: 48 of
// each partition-scan kind and 48 comm pipelines, in the shapes of the
// solve-nphard workload. The comm instances are drawn last, so adding
// them left the earlier records unchanged.
func benchGoldenInstances() []goldenCase {
	rng := rand.New(rand.NewSource(20261017))
	var out []goldenCase
	for i := 0; i < 48; i++ {
		f := workflow.RandomFork(rng, 5, 10)
		pl := platform.Random(rng, 4+rng.Intn(2), 5)
		out = append(out, goldenCase{Kernel: "fork", DP: true, Fork: &f, Platform: &pl})
	}
	for i := 0; i < 48; i++ {
		fj := workflow.RandomForkJoin(rng, 4, 10)
		pl := platform.Random(rng, 4+rng.Intn(2), 5)
		out = append(out, goldenCase{Kernel: "forkjoin", DP: true, ForkJoin: &fj, Platform: &pl})
	}
	for i := 0; i < 48; i++ {
		g := workflow.RandomSP(rng, 6, 10, 4, 3)
		pl := platform.Random(rng, 5, 5)
		out = append(out, goldenCase{Kernel: "sp", SP: &g, Platform: &pl})
	}
	// 6 stages on 5 processors with per-link bandwidths: stage weights
	// 1..10, data sizes, speeds and bandwidths 1..5.
	for i := 0; i < 48; i++ {
		p := fullmodel.NewPipeline(kernelWeights(rng, 6), kernelData(rng, 7))
		speeds := kernelData(rng, 5)
		bw := fullmodel.Bandwidth{Links: make([][]float64, 5), In: kernelData(rng, 5), Out: kernelData(rng, 5)}
		for u := range bw.Links {
			bw.Links[u] = kernelData(rng, 5)
			bw.Links[u][u] = 0
		}
		pl := bw.Apply(speeds)
		out = append(out, goldenCase{Kernel: "comm", CommPipeline: &p, CommPlatform: &pl})
	}
	return out
}

// fractionalGoldenInstances draws the fractional corpus instances: forks
// of 1–5 leaves and fork-joins of 1–4 on 2–5 processors, with weights
// and speeds drawn from continuous ranges, so no two processors share a
// speed and no block weight is an integer.
func fractionalGoldenInstances() []goldenCase {
	rng := rand.New(rand.NewSource(20261019))
	frac := func(n int, lo, span float64) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = lo + span*rng.Float64()
		}
		return v
	}
	var out []goldenCase
	for i := 0; i < 40; i++ {
		f := workflow.Fork{Root: frac(1, 0.1, 5)[0], Weights: frac(1+rng.Intn(5), 0.1, 5)}
		pl := platform.Platform{Speeds: frac(2+rng.Intn(4), 0.1, 3)}
		out = append(out, goldenCase{Kernel: "fork", DP: i%2 == 0, Fork: &f, Platform: &pl})
	}
	for i := 0; i < 40; i++ {
		w := frac(2, 0.1, 5)
		fj := workflow.ForkJoin{Root: w[0], Join: w[1], Weights: frac(1+rng.Intn(4), 0.1, 5)}
		pl := platform.Platform{Speeds: frac(2+rng.Intn(4), 0.1, 3)}
		out = append(out, goldenCase{Kernel: "forkjoin", DP: i%2 == 1, ForkJoin: &fj, Platform: &pl})
	}
	return out
}

// boundScales returns the scales of instance i's bounded goals: each cap
// is the other metric's unbounded optimum times one of them.
type boundScales func(i int) (lup, pul []float64)

// cycledScales gives each instance one scale per bounded goal, cycling
// through {1, 1.25, 1.5, 0.5}, so a corpus holds bounds that touch the
// optimum exactly, loose bounds and infeasible ones.
func cycledScales(i int) (lup, pul []float64) {
	scales := []float64{1, 1.25, 1.5, 0.5}
	return scales[i%4 : i%4+1], scales[(i+1)%4 : (i+1)%4+1]
}

// nearScales gives every instance the bounds at, above and just below
// its optimum.
func nearScales(int) (lup, pul []float64) {
	scales := []float64{1, 1.3, 1 - 1e-6}
	return scales, scales
}

// generateGolden expands every instance into its goals: the two
// unbounded ones, then a bounded one per scale.
func generateGolden(ctx context.Context, insts []goldenCase, scales boundScales) ([]goldenCase, error) {
	var out []goldenCase
	solve := func(c goldenCase, goal string, bound float64) (goldenCase, error) {
		c.Goal, c.Bound = goal, bound
		c, err := solveGolden(ctx, c, 1)
		out = append(out, c)
		return c, err
	}
	for i, inst := range insts {
		pc, err := solve(inst, "period", 0)
		if err != nil {
			return nil, err
		}
		lc, err := solve(inst, "latency", 0)
		if err != nil {
			return nil, err
		}
		lups, puls := scales(i)
		for _, s := range lups {
			if _, err := solve(inst, "lup", fromHex(pc.Period)*s); err != nil {
				return nil, err
			}
		}
		for _, s := range puls {
			if _, err := solve(inst, "pul", fromHex(lc.Latency)*s); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func fromHex(s string) float64 {
	b, _ := strconv.ParseUint(s, 16, 64)
	return math.Float64frombits(b)
}

func TestKernelsGoldenCorpus(t *testing.T) {
	checkGoldenCorpus(t, goldenPath, *writeGolden, goldenInstances, cycledScales,
		[]string{"pipeline", "fork", "forkjoin", "sp", "comm"})
}

func TestKernelsBenchGoldenCorpus(t *testing.T) {
	checkGoldenCorpus(t, benchGoldenPath, *writeBenchGolden, benchGoldenInstances, cycledScales,
		[]string{"fork", "forkjoin", "sp", "comm"})
}

func TestKernelsFractionalGoldenCorpus(t *testing.T) {
	checkGoldenCorpus(t, fracGoldenPath, *writeFracGolden, fractionalGoldenInstances, nearScales,
		[]string{"fork", "forkjoin"})
}

// checkGoldenCorpus re-solves every record of the corpus at path at one
// and at three workers and compares the answers bit for bit; write first
// regenerates the corpus from instances under scales. kernels lists the
// kernels the corpus must cover.
func checkGoldenCorpus(t *testing.T, path string, write bool, instances func() []goldenCase, scales boundScales, kernels []string) {
	ctx := context.Background()
	if write {
		cases, err := generateGolden(ctx, instances(), scales)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, c := range cases {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(cases), path)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	seen := map[string]int{}
	for line := 1; sc.Scan(); line++ {
		var want goldenCase
		if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		seen[want.Kernel]++
		for _, par := range []int{1, 3} {
			got, err := solveGolden(ctx, want, par)
			if err != nil {
				t.Fatalf("line %d (%s %s) par=%d: %v", line, want.Kernel, want.Goal, par, err)
			}
			if got.Found != want.Found || got.Period != want.Period || got.Latency != want.Latency ||
				!bytes.Equal(got.Mapping, want.Mapping) {
				t.Errorf("line %d (%s %s bound=%v) par=%d: got found=%v cost=(%s,%s) mapping=%s, want found=%v cost=(%s,%s) mapping=%s",
					line, want.Kernel, want.Goal, want.Bound, par,
					got.Found, got.Period, got.Latency, got.Mapping,
					want.Found, want.Period, want.Latency, want.Mapping)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		if seen[k] == 0 {
			t.Errorf("corpus has no %s case", k)
		}
	}
}
