package anytime

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// annealGolden pins the annealing members' runs on forks and
// fork-joins: one "<case>__expect: <period> <latency> <iterations>
// <trace>" row per member run. A case names the kind, the instance, the
// model, the objective and the member id; members 0, 1 and 2 each run
// alone on a fresh incumbent, so every run is deterministic, and
// members 1 and 2 anneal, so their rng.Float64 acceptance draws are
// pinned too. The trace is an FNV-64a hash of every candidate a member
// evaluated (its blocks and its cost bits, in order) and of its best
// mapping: a changed move, RNG draw or cost bit changes it.
const annealGolden = "testdata/anneal.golden"

// annealGoldenInstances is the number of instances per kind.
const annealGoldenInstances = 120

// annealGoldenConfig fixes each member's run: a fixed iteration count,
// a stall window short enough that restarts happen, and no exact member.
var annealGoldenConfig = Config{Seed: 39, MaxIterations: 400, StallIterations: 120}

// annealGoldenObjectives are the four objectives; a bounded one takes
// its bound as a factor of the first seed's cost, cycling over the
// instances so that some runs start infeasible.
var annealGoldenObjectives = []string{"min-period", "min-latency", "latency-under-period", "period-under-latency"}

var annealGoldenFactors = []float64{0.6, 0.9, 1.2}

// annealGoldenSpec returns objective o of an instance whose first seed
// costs c.
func annealGoldenSpec(o string, i int, c mapping.Cost, dp bool) Spec {
	f := annealGoldenFactors[i%len(annealGoldenFactors)]
	switch o {
	case "min-period":
		return Spec{MinimizePeriod: true, AllowDP: dp}
	case "min-latency":
		return Spec{AllowDP: dp}
	case "latency-under-period":
		return Spec{PeriodBound: c.Period * f, AllowDP: dp}
	default:
		return Spec{MinimizePeriod: true, LatencyBound: c.Latency * f, AllowDP: dp}
	}
}

// annealGoldenInstance draws instance i: 0-7 leaves of fractional
// weight on 1-7 processors, whose speeds repeat (integers 1-5) on even
// instances and are fractional on odd ones. Odd instances allow
// data-parallelism.
func annealGoldenInstance(rng *rand.Rand, i int) (fj workflow.ForkJoin, pl platform.Platform, dp bool) {
	n, p := rng.Intn(8), 1+rng.Intn(7)
	w := func() float64 { return 0.5 + 9.5*rng.Float64() }
	fj = workflow.ForkJoin{Root: w(), Weights: make([]float64, n), Join: w()}
	for k := range fj.Weights {
		fj.Weights[k] = w()
	}
	speeds := make([]float64, p)
	for k := range speeds {
		speeds[k] = float64(1 + rng.Intn(5))
		if i%2 == 1 {
			speeds[k] = 0.5 + 4.5*rng.Float64()
		}
	}
	return fj, platform.Platform{Speeds: speeds}, i%2 == 1
}

// traceInts writes vs to the trace hash.
func traceInts(h hash.Hash64, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// traceCost writes a cost's bits to the trace hash.
func traceCost(h hash.Hash64, c mapping.Cost) {
	traceInts(h, int(math.Float64bits(c.Period)), int(math.Float64bits(c.Latency)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// traceBlock writes one block to the trace hash; join < 0 marks a
// fork's block, which has no join flag.
func traceBlock(h hash.Hash64, root bool, join int, leaves []int, a mapping.Assignment) {
	traceInts(h, b2i(root), join, int(a.Mode), len(leaves))
	traceInts(h, leaves...)
	traceInts(h, len(a.Procs))
	traceInts(h, a.Procs...)
}

func traceFork(h hash.Hash64, m mapping.ForkMapping) {
	traceInts(h, len(m.Blocks))
	for _, b := range m.Blocks {
		traceBlock(h, b.Root, -1, b.Leaves, b.Assignment)
	}
}

func traceForkJoin(h hash.Hash64, m mapping.ForkJoinMapping) {
	traceInts(h, len(m.Blocks))
	for _, b := range m.Blocks {
		traceBlock(h, b.Root, b2i(b.Join), b.Leaves, b.Assignment)
	}
}

// annealGoldenRun runs member id alone from seeds and renders its row.
func annealGoldenRun[M any](spec Spec, lb float64, id int, seeds []M,
	eval func(M) (mapping.Cost, bool), mutate func(*rand.Rand, M) M, trace func(hash.Hash64, M)) string {
	h := fnv.New64a()
	traced := func(m M) (mapping.Cost, bool) {
		c, ok := eval(m)
		trace(h, m)
		traceInts(h, b2i(ok))
		traceCost(h, c)
		return c, ok
	}
	inc := &incumbent.Best[M]{}
	for _, s := range seeds {
		if c, ok := eval(s); ok {
			inc.Offer(spec, s, c)
		}
	}
	var iters atomic.Uint64
	anneal(context.Background(), spec, annealGoldenConfig, lb, id, inc, &iters, func() {}, seeds, traced, mutate)
	m, c, found := inc.Snapshot()
	if !found {
		return fmt.Sprintf("- - %d %016x", iters.Load(), h.Sum64())
	}
	trace(h, m)
	return fmt.Sprintf("%v %v %d %016x", c.Period, c.Latency, iters.Load(), h.Sum64())
}

// annealGoldenRows runs members 0, 1 and 2 on every objective of every
// drawn fork and fork-join and returns the (case, row) pairs in order.
func annealGoldenRows() [][2]string {
	rng := rand.New(rand.NewSource(39))
	var rows [][2]string
	for _, kind := range []string{"fork", "fork-join"} {
		for i := 0; i < annealGoldenInstances; i++ {
			fj, pl, dp := annealGoldenInstance(rng, i)
			model := "no-dp"
			if dp {
				model = "dp"
			}
			for _, o := range annealGoldenObjectives {
				for id := 0; id < 3; id++ {
					// A fork runs as a fork-join without a join.
					join := kind == "fork-join"
					g, trace := fj, traceForkJoin
					if !join {
						g.Join = 0
						trace = func(h hash.Hash64, m mapping.ForkJoinMapping) { traceFork(h, m.Fork()) }
					}
					all := mapping.ReplicateAllForkJoin(g, pl)
					all.Blocks[0].Join = join
					one := mapping.ForkJoinMapping{Blocks: []mapping.ForkJoinBlock{
						mapping.NewForkJoinBlock(true, join, all.Blocks[0].Leaves, mapping.Replicated, pl.Fastest()),
					}}
					eval := forkJoinEval(g, join, pl)
					c, _ := eval(all)
					spec := annealGoldenSpec(o, i, c, dp)
					row := annealGoldenRun(spec, ForkJoinLB(g, pl, spec), id, []mapping.ForkJoinMapping{all, one}, eval,
						forkJoinMutator(pl, join, dp), trace)
					name := fmt.Sprintf("%s/%03d/%s/%s/m%d", kind, i, model, o, id)
					rows = append(rows, [2]string{name, row})
				}
			}
		}
	}
	return rows
}

// TestAnnealGolden compares every member run with the golden file, case
// by case and in order.
func TestAnnealGolden(t *testing.T) {
	f, err := os.Open(annealGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var expect [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, row, ok := strings.Cut(line, "__expect: ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		expect = append(expect, [2]string{name, row})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	actual := annealGoldenRows()
	if len(actual) != len(expect) {
		t.Fatalf("%d runs, golden has %d", len(actual), len(expect))
	}
	bad := 0
	for i, a := range actual {
		if a != expect[i] {
			t.Errorf("%s__actual: %s\n%s__expect: %s", a[0], a[1], expect[i][0], expect[i][1])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
