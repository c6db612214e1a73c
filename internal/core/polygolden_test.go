package core

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// polyGolden pins the answers of the polynomial pipeline, fork and
// fork-join cells (Theorems 1-11 and 14, Corollary 1) through Solve: one
// "<case>__expect: <mapping> | period | latency | feasible" row per answer.
// A case names the instance, its objective and, for a bounded objective,
// the bound as a factor of the instance's own optimum ("below" is just
// under it, so infeasible answers are pinned too).
const polyGolden = "testdata/poly.golden"

// polyGoldenInstances is the number of instances per kind, each with at
// least one polynomial objective.
const polyGoldenInstances = 500

// polyGoldenBounds are the bound factors of the bounded objectives.
var polyGoldenBounds = []struct {
	name   string
	factor float64
}{{"x1", 1}, {"x1.3", 1.3}, {"below", 1 - 1e-6}}

// polyGoldenInstance draws instance i of a kind: n 0-10 (1-10 for a
// pipeline), p 1-8, integer weights 1-10 and speeds 1-5 so that speeds
// repeat. The shape cycles through homogeneous and heterogeneous
// platforms and graphs, with and without data-parallelism.
func polyGoldenInstance(rng *rand.Rand, kind workflow.Kind, i int) Problem {
	n, p := rng.Intn(11), 1+rng.Intn(8)
	if kind == workflow.KindPipeline {
		n = 1 + rng.Intn(10)
	}
	shape := i % 6
	homPlatform := shape <= 1 || shape == 4
	homGraph := shape <= 3
	pr := Problem{AllowDataParallel: shape == 1 || (shape == 4 && rng.Intn(2) == 0)}
	if homPlatform {
		pr.Platform = platform.Homogeneous(p, float64(1+rng.Intn(5)))
	} else {
		pr.Platform = platform.Random(rng, p, 5)
	}
	ws := make([]float64, n)
	w := float64(1 + rng.Intn(10))
	for k := range ws {
		ws[k] = w
		if !homGraph {
			ws[k] = float64(1 + rng.Intn(10))
		}
	}
	switch kind {
	case workflow.KindPipeline:
		pr.Pipeline = &workflow.Pipeline{Weights: ws}
	case workflow.KindFork:
		pr.Fork = &workflow.Fork{Root: float64(1 + rng.Intn(10)), Weights: ws}
	default:
		pr.ForkJoin = &workflow.ForkJoin{Root: float64(1 + rng.Intn(10)), Weights: ws, Join: float64(1 + rng.Intn(10))}
	}
	return pr
}

// polyGoldenLabel renders an instance for its case name.
func polyGoldenLabel(pr Problem) string {
	var g string
	switch {
	case pr.Pipeline != nil:
		g = fmt.Sprintf("w=%v", pr.Pipeline.Weights)
	case pr.Fork != nil:
		g = fmt.Sprintf("root=%v,w=%v", pr.Fork.Root, pr.Fork.Weights)
	default:
		g = fmt.Sprintf("root=%v,w=%v,join=%v", pr.ForkJoin.Root, pr.ForkJoin.Weights, pr.ForkJoin.Join)
	}
	model := "no-dp"
	if pr.AllowDataParallel {
		model = "dp"
	}
	return fmt.Sprintf("%s/speeds=%v/%s", g, pr.Platform.Speeds, model)
}

// polyGoldenAnswer renders one answer, the mapping with its blocks,
// leaves and processors in the order the solver built them.
func polyGoldenAnswer(sol Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var m any = "-"
	switch {
	case sol.PipelineMapping != nil:
		m = sol.PipelineMapping.Intervals
	case sol.ForkMapping != nil:
		m = sol.ForkMapping.Blocks
	case sol.ForkJoinMapping != nil:
		m = sol.ForkJoinMapping.Blocks
	}
	return fmt.Sprintf("%v | %v | %v | %v", m, sol.Cost.Period, sol.Cost.Latency, sol.Feasible)
}

// polyGoldenRows solves every polynomial objective of every drawn instance
// and returns the (case, answer) rows in order.
func polyGoldenRows() [][2]string {
	rng := rand.New(rand.NewSource(36))
	var rows [][2]string
	for _, kind := range []workflow.Kind{workflow.KindPipeline, workflow.KindFork, workflow.KindForkJoin} {
		for count, i := 0, 0; count < polyGoldenInstances; i++ {
			pr := polyGoldenInstance(rng, kind, i)
			poly := func(o Objective) bool {
				pr.Objective = o
				return ClassifyCell(CellKeyOf(pr)).Complexity.Polynomial()
			}
			prefix := fmt.Sprintf("%s/%03d/%s/", kind, count, polyGoldenLabel(pr))
			var opt [2]float64 // the optimum period and latency, 0 when not polynomial
			added := false
			for _, o := range []Objective{MinPeriod, MinLatency} {
				if !poly(o) {
					continue
				}
				sol, err := Solve(pr, Options{})
				opt[o] = sol.Cost.Period
				if o == MinLatency {
					opt[o] = sol.Cost.Latency
				}
				rows = append(rows, [2]string{prefix + o.String(), polyGoldenAnswer(sol, err)})
				added = true
			}
			for _, o := range []Objective{LatencyUnderPeriod, PeriodUnderLatency} {
				optimum := opt[o-LatencyUnderPeriod]
				if !poly(o) || optimum == 0 {
					continue
				}
				for _, b := range polyGoldenBounds {
					pr.Objective, pr.Bound = o, optimum*b.factor
					sol, err := Solve(pr, Options{})
					rows = append(rows, [2]string{prefix + o.String() + "@" + b.name, polyGoldenAnswer(sol, err)})
				}
			}
			if added {
				count++
			}
		}
	}
	return rows
}

// TestPolyGolden compares every polynomial answer with the golden file,
// case by case and in order.
func TestPolyGolden(t *testing.T) {
	f, err := os.Open(polyGolden)
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
	actual := polyGoldenRows()
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
