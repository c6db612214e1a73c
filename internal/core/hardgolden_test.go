package core

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// hardGolden pins the answers of the NP-hard fork and fork-join cells
// (Theorems 12, 13, 15 and 12/15) through Solve, inside the exhaustive
// limits and past them: one "<case>__expect: <answer>" row per answer.
// An answer records the cell, the method, exactness and feasibility,
// the cost bits, and every block's root and join flags, its leaves in
// stored order, its processors and its mode.
const hardGolden = "testdata/hard.golden"

// hardGoldenInstances is the number of instances per kind, each with at
// least one NP-hard objective.
const hardGoldenInstances = 150

// hardGoldenInstance draws instance i of a fork kind. The shape cycles
// through the NP-hard cells: a heterogeneous graph on a homogeneous
// platform (Theorem 12, with or without data-parallelism), any graph on
// a heterogeneous platform with data-parallelism (Theorem 13) and a
// heterogeneous graph on a heterogeneous platform without it
// (Theorems 15 and 12/15). Every other triple of instances lies past the
// default exhaustive limits; every other instance has fractional weights
// and speeds.
func hardGoldenInstance(rng *rand.Rand, kind workflow.Kind, i int) Problem {
	shape, oversized, fractional := i%3, (i/3)%2 == 1, i%2 == 1
	n, p := rng.Intn(5), 1+rng.Intn(5)
	if kind == workflow.KindForkJoin {
		n = rng.Intn(4)
	}
	if oversized {
		n, p = 5+rng.Intn(6), 6+rng.Intn(3)
	}
	weight := func() float64 {
		if fractional {
			return float64(1+rng.Intn(99)) / 10
		}
		return float64(1 + rng.Intn(10))
	}
	speed := func() float64 {
		if fractional {
			return float64(5+rng.Intn(46)) / 10
		}
		return float64(1 + rng.Intn(5))
	}
	pr := Problem{AllowDataParallel: shape == 1 || shape == 0 && rng.Intn(2) == 0}
	if shape == 0 {
		pr.Platform = platform.Homogeneous(p, speed())
	} else {
		speeds := make([]float64, p)
		for k := range speeds {
			speeds[k] = speed()
		}
		pr.Platform = platform.New(speeds...)
	}
	ws := make([]float64, n)
	w := weight()
	for k := range ws {
		ws[k] = w
		if shape != 1 || rng.Intn(2) == 0 {
			ws[k] = weight()
		}
	}
	root := weight()
	if kind == workflow.KindFork {
		pr.Fork = &workflow.Fork{Root: root, Weights: ws}
	} else {
		pr.ForkJoin = &workflow.ForkJoin{Root: root, Weights: ws, Join: weight()}
	}
	return pr
}

// hardGoldenLabel renders an instance for its case name.
func hardGoldenLabel(pr Problem) string {
	var g string
	if pr.Fork != nil {
		g = fmt.Sprintf("root=%v,w=%v", pr.Fork.Root, pr.Fork.Weights)
	} else {
		g = fmt.Sprintf("root=%v,w=%v,join=%v", pr.ForkJoin.Root, pr.ForkJoin.Weights, pr.ForkJoin.Join)
	}
	model := "no-dp"
	if pr.AllowDataParallel {
		model = "dp"
	}
	return fmt.Sprintf("%s/speeds=%v/%s", g, pr.Platform.Speeds, model)
}

// hardGoldenBlock renders one block: root and join flags, leaves and
// processors in stored order, mode.
func hardGoldenBlock(root, join bool, leaves []int, a mapping.Assignment) string {
	return fmt.Sprintf("{root=%v join=%v leaves=%v procs=%v %v}", root, join, leaves, a.Procs, a.Mode)
}

// hardGoldenAnswer renders one answer.
func hardGoldenAnswer(sol Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var blocks []string
	m := "-"
	switch {
	case sol.ForkMapping != nil:
		m = "fork"
		for _, b := range sol.ForkMapping.Blocks {
			blocks = append(blocks, hardGoldenBlock(b.Root, false, b.Leaves, b.Assignment))
		}
	case sol.ForkJoinMapping != nil:
		m = "fork-join"
		for _, b := range sol.ForkJoinMapping.Blocks {
			blocks = append(blocks, hardGoldenBlock(b.Root, b.Join, b.Leaves, b.Assignment))
		}
	}
	return fmt.Sprintf("%s: %v exact=%v feasible=%v | period=%v(%016x) latency=%v(%016x) | %s%v",
		sol.Classification.Source, sol.Method, sol.Exact, sol.Feasible,
		sol.Cost.Period, math.Float64bits(sol.Cost.Period), sol.Cost.Latency, math.Float64bits(sol.Cost.Latency),
		m, blocks)
}

// hardGoldenRows solves every NP-hard objective of every drawn instance
// through Solve, checks that SolveContext agrees, and returns the (case,
// answer) rows in order. The bounded objectives take their bounds at the
// unbounded answer's cost times 1, 1.3 and just under 1.
func hardGoldenRows(t *testing.T) [][2]string {
	rng := rand.New(rand.NewSource(40))
	var rows [][2]string
	solve := func(pr Problem) (Solution, error) {
		sol, err := Solve(pr, Options{})
		ctxSol, ctxErr := SolveContext(context.Background(), pr, Options{})
		if !reflect.DeepEqual(sol, ctxSol) || (err == nil) != (ctxErr == nil) {
			t.Errorf("%s %v: SolveContext diverges from Solve", hardGoldenLabel(pr), pr.Objective)
		}
		return sol, err
	}
	for _, kind := range []workflow.Kind{workflow.KindFork, workflow.KindForkJoin} {
		for count, i := 0, 0; count < hardGoldenInstances; i++ {
			pr := hardGoldenInstance(rng, kind, i)
			hard := func(o Objective) bool {
				pr.Objective = o
				return !ClassifyCell(CellKeyOf(pr)).Complexity.Polynomial()
			}
			prefix := fmt.Sprintf("%s/%03d/%s/", kind, count, hardGoldenLabel(pr))
			var opt [2]float64 // the unbounded answers' period and latency
			added := false
			for _, o := range []Objective{MinPeriod, MinLatency} {
				isHard := hard(o)
				sol, err := solve(pr)
				opt[o] = sol.Cost.Period
				if o == MinLatency {
					opt[o] = sol.Cost.Latency
				}
				if isHard {
					rows = append(rows, [2]string{prefix + o.String(), hardGoldenAnswer(sol, err)})
					added = true
				}
			}
			for _, o := range []Objective{LatencyUnderPeriod, PeriodUnderLatency} {
				if !hard(o) {
					continue
				}
				for _, b := range polyGoldenBounds {
					pr.Objective, pr.Bound = o, opt[o-LatencyUnderPeriod]*b.factor
					sol, err := solve(pr)
					rows = append(rows, [2]string{prefix + o.String() + "@" + b.name, hardGoldenAnswer(sol, err)})
					added = true
				}
			}
			if added {
				count++
			}
		}
	}
	return rows
}

// TestHardGolden compares every NP-hard fork and fork-join answer with
// the golden file, case by case and in order.
func TestHardGolden(t *testing.T) {
	f, err := os.Open(hardGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var expect [][2]string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
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
	actual := hardGoldenRows(t)
	if len(actual) != len(expect) {
		t.Fatalf("%d answers, golden has %d", len(actual), len(expect))
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
