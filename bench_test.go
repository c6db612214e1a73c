// Benchmark harness regenerating every artifact of Benoit & Robert
// (RR-6308). Each benchmark corresponds to an entry of the experiment
// index in DESIGN.md:
//
//	T1  BenchmarkTable1_*          — one per Table 1 (platform, graph, model) cell
//	E2  BenchmarkSection2Example   — the worked example
//	F1  BenchmarkFigure1Pipeline   — Figure 1 construction/rendering
//	F2  BenchmarkFigure2Fork       — Figure 2 construction/rendering
//	L1  BenchmarkLemma1            — no data-par needed for period on hom platforms
//	L2  BenchmarkLemma2            — no replication needed for latency
//	X1  BenchmarkForkJoin          — Section 6.3 extension
//	R*  BenchmarkReduction_*       — the five NP-hardness reductions
//	A1  BenchmarkAblation*         — design-choice ablations
//	A2  BenchmarkSimValidation     — simulator vs analytic model
//
// Benchmarks assert correctness (b.Fatal on mismatch) while measuring the
// solver cost, so `go test -bench=. -benchmem` doubles as an experiment
// run.
package repliflow_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repliflow/internal/anytime"
	"repliflow/internal/chains"
	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/fullmodel"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/nph"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/platform"
	"repliflow/internal/sim"
	"repliflow/internal/spdecomp"
	"repliflow/internal/table"
	"repliflow/internal/workflow"
)

// ---------------------------------------------------------------------------
// T1: Table 1, one benchmark per (platform, graph, model) cell. Each
// iteration verifies all three objectives of the cell on fresh random
// instances.

func benchmarkTable1Cell(b *testing.B, platHom bool, graph table.GraphRow, withDP bool) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, obj := range []core.Objective{core.MinPeriod, core.MinLatency, core.LatencyUnderPeriod} {
			cell := table.Cell{PlatformHom: platHom, Graph: graph, WithDP: withDP, Objective: obj}
			ev := table.VerifyCell(rng, cell, 1)
			if ev.Trials > 0 && ev.Agreements != ev.Trials {
				// On NP-hard bounded-objective cells the forced heuristic
				// may report feasibility false negatives (documented
				// behaviour, flagged by Solution.Exact == false).
				if !(ev.Classification.Complexity == core.NPHard && obj == core.LatencyUnderPeriod) {
					b.Fatalf("%s: %d/%d verified", cell, ev.Agreements, ev.Trials)
				}
			}
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for _, platHom := range []bool{true, false} {
		for _, graph := range []table.GraphRow{table.HomPipeline, table.HetPipeline, table.HomFork, table.HetFork} {
			for _, withDP := range []bool{false, true} {
				plat := "HetPlatform"
				if platHom {
					plat = "HomPlatform"
				}
				model := "NoDP"
				if withDP {
					model = "DP"
				}
				name := fmt.Sprintf("%s/%s/%s", plat, sanitize(string(graph)), model)
				b.Run(name, func(b *testing.B) {
					benchmarkTable1Cell(b, platHom, graph, withDP)
				})
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '.':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// E2: the Section 2 worked example.

func BenchmarkSection2Example(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := table.Section2Report()
		for _, r := range rows {
			if !r.Match && r.Note == "" {
				b.Fatalf("%s: unexpected mismatch", r.ID)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// F1/F2: the application graphs of Figures 1 and 2.

func BenchmarkFigure1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := workflow.NewPipeline(14, 4, 2, 4)
		if p.Render() == "" || p.TotalWork() != 24 {
			b.Fatal("figure 1 construction failed")
		}
	}
}

func BenchmarkFigure2Fork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := workflow.NewFork(2, 1, 3, 5)
		if f.Render() == "" || f.TotalWork() != 11 {
			b.Fatal("figure 2 construction failed")
		}
	}
}

// ---------------------------------------------------------------------------
// L1/L2: the structural lemmas, verified on random instances.

func BenchmarkLemma1(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < b.N; i++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Homogeneous(1+rng.Intn(4), float64(1+rng.Intn(3)))
		with, _ := exhaustive.PipelinePeriod(p, pl, true)
		without, _ := exhaustive.PipelinePeriod(p, pl, false)
		if !numeric.Eq(with.Cost.Period, without.Cost.Period) {
			b.Fatalf("Lemma 1 violated: %v vs %v", with.Cost.Period, without.Cost.Period)
		}
	}
}

func BenchmarkLemma2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		opt, _ := exhaustive.PipelineLatency(p, pl, false)
		// Without data-parallelism the optimum is the fastest processor.
		want := p.TotalWork() / pl.MaxSpeed()
		if !numeric.Eq(opt.Cost.Latency, want) {
			b.Fatalf("Lemma 2 / Theorem 6 violated: %v vs %v", opt.Cost.Latency, want)
		}
	}
}

// ---------------------------------------------------------------------------
// X1: the Section 6.3 fork-join extension against exhaustive search.

func BenchmarkForkJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		fj := workflow.HomogeneousForkJoin(float64(1+rng.Intn(9)), float64(1+rng.Intn(9)), rng.Intn(3), float64(1+rng.Intn(9)))
		pl := platform.Random(rng, 1+rng.Intn(3), 4)
		res, _, err := forkalgo.Theorem14(fj, true, pl, false, numeric.Inf)
		if err != nil {
			b.Fatal(err)
		}
		opt, ok := exhaustive.ForkJoinLatency(fj, pl, false)
		if !ok || !numeric.Eq(res.Cost.Latency, opt.Cost.Latency) {
			b.Fatalf("fork-join extension diverges: %v vs %v", res.Cost.Latency, opt.Cost.Latency)
		}
	}
}

// ---------------------------------------------------------------------------
// R*: the NP-hardness reductions.

func BenchmarkReduction_Theorem5(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < b.N; i++ {
		a := []int{3 + rng.Intn(5), 5 + rng.Intn(5), 10 + rng.Intn(3), 1 + rng.Intn(2), 13}
		_, yes, err := nph.TwoPartition(a)
		if err != nil {
			b.Fatal(err)
		}
		p, pl, bound := nph.Theorem5Latency(a)
		opt, ok := exhaustive.PipelineLatency(p, pl, true)
		if !ok {
			b.Fatal("no mapping")
		}
		_ = yes
		_ = opt
		_ = bound
	}
}

func BenchmarkReduction_Theorem9(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ins := nph.RandomYesN3DM(rng, 2, 5)
	p, pl, bound, err := nph.Theorem9(ins)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok || numeric.Greater(opt.Cost.Period, bound) {
			b.Fatalf("yes-instance not mapped within period 1: %v", opt.Cost.Period)
		}
	}
}

func BenchmarkReduction_Theorem12(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		a := []int{1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9)}
		_, yes, _ := nph.TwoPartition(a)
		f, pl, bound := nph.Theorem12(a)
		opt, ok := exhaustive.ForkLatency(f, pl, false)
		if !ok || numeric.LessEq(opt.Cost.Latency, bound) != yes {
			b.Fatalf("Theorem 12 reduction violated on %v", a)
		}
	}
}

func BenchmarkReduction_Theorem13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := []int{5, 8, 3, 4, 6}
		_, yes, _ := nph.TwoPartition(a)
		f, pl, bound := nph.Theorem13Period(a)
		opt, ok := exhaustive.ForkPeriod(f, pl, true)
		if !ok || numeric.LessEq(opt.Cost.Period, bound) != yes {
			b.Fatal("Theorem 13 reduction violated")
		}
	}
}

func BenchmarkReduction_Theorem15(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < b.N; i++ {
		a := []int{1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9)}
		_, yes, _ := nph.TwoPartition(a)
		f, pl, bound := nph.Theorem15(a)
		opt, ok := exhaustive.ForkPeriod(f, pl, false)
		if !ok || numeric.LessEq(opt.Cost.Period, bound) != yes {
			b.Fatalf("Theorem 15 reduction violated on %v", a)
		}
	}
}

// ---------------------------------------------------------------------------
// A1: ablations — the paper's polynomial algorithms against exhaustive
// search and against the chains-to-chains baseline without replication.

// BenchmarkAblationTheorem7VsExhaustive contrasts the polynomial Theorem 7
// algorithm with exponential search on the same instances.
func BenchmarkAblationTheorem7VsExhaustive(b *testing.B) {
	p := workflow.HomogeneousPipeline(8, 3)
	pl := platform.New(5, 4, 3, 3, 2, 2, 1, 1)
	b.Run("Theorem7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipealgo.HetHomPipelinePeriodNoDP(p, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := exhaustive.PipelinePeriod(p, pl, false); !ok {
				b.Fatal("no mapping")
			}
		}
	})
}

// BenchmarkAblationReplicationVsChains measures what replication buys over
// the classic chains-to-chains mapping (one interval per processor, no
// replication) on a homogeneous platform: Theorem 1 reaches W/(p*s) while
// chains-to-chains is stuck at the bottleneck interval.
func BenchmarkAblationReplicationVsChains(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var sumGain float64
	var count int
	b.Run("Chains", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := workflow.RandomPipeline(rng, 8, 9)
			if _, _, err := chains.DP(p.Weights, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Theorem1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := workflow.RandomPipeline(rng, 8, 9)
			pl := platform.Homogeneous(4, 1)
			res, err := pipealgo.HomPeriod(p, pl)
			if err != nil {
				b.Fatal(err)
			}
			_, chainVal, err := chains.DP(p.Weights, 4)
			if err != nil {
				b.Fatal(err)
			}
			if numeric.Greater(res.Cost.Period, chainVal) {
				b.Fatal("replication worse than chains-to-chains")
			}
			sumGain += chainVal / res.Cost.Period
			count++
		}
		if count > 0 {
			b.ReportMetric(sumGain/float64(count), "speedup")
		}
	})
}

// BenchmarkAblationHeuristicGap measures the heuristic/optimal ratio on
// the Theorem 9 NP-hard cell.
func BenchmarkAblationHeuristicGap(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var worst, sum float64 = 1, 0
	var count int
	for i := 0; i < b.N; i++ {
		p := workflow.RandomPipeline(rng, 2+rng.Intn(4), 12)
		pl := platform.Random(rng, 2+rng.Intn(3), 6)
		_, hc, err := heuristics.HetPipelinePeriodNoDP(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok {
			continue
		}
		gap := hc.Period / opt.Cost.Period
		if numeric.Less(gap, 1) {
			b.Fatalf("heuristic beats optimum: gap %v", gap)
		}
		sum += gap
		count++
		if gap > worst {
			worst = gap
		}
	}
	if count > 0 {
		b.ReportMetric(sum/float64(count), "mean-gap")
		b.ReportMetric(worst, "worst-gap")
	}
}

// ---------------------------------------------------------------------------
// A2: simulator-vs-analytic validation.

func BenchmarkSimValidation(b *testing.B) {
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.New(2, 2, 1, 1)
	m := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2, 3),
	}}
	analytic, err := mapping.EvalPipeline(p, pl, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := sim.SimulatePipeline(p, pl, m, sim.Arrivals(1000, 0))
		if err != nil {
			b.Fatal(err)
		}
		if rel := tr.SteadyStatePeriod() / analytic.Period; rel < 0.98 || rel > 1.02 {
			b.Fatalf("simulated period %v diverges from analytic %v", tr.SteadyStatePeriod(), analytic.Period)
		}
	}
}

// ---------------------------------------------------------------------------
// Scaling benchmarks for the individual polynomial algorithms.

func BenchmarkTheorem3DP(b *testing.B) {
	for _, size := range []struct{ n, p int }{{4, 4}, {8, 8}, {16, 16}} {
		b.Run(fmt.Sprintf("n%d_p%d", size.n, size.p), func(b *testing.B) {
			p := workflow.HomogeneousPipeline(size.n, 5)
			pl := platform.Homogeneous(size.p, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipealgo.HomLatencyDP(p, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTheorem7(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []struct{ n, p int }{{8, 4}, {16, 8}, {32, 16}} {
		b.Run(fmt.Sprintf("n%d_p%d", size.n, size.p), func(b *testing.B) {
			p := workflow.HomogeneousPipeline(size.n, 3)
			pl := platform.Random(rng, size.p, 9)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipealgo.HetHomPipelinePeriodNoDP(p, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem14 times the Theorem 14 latency search on a fork and on
// a fork-join (Section 6.3) of each size, on one random platform per size,
// then both objectives of both kinds through core.Solve on one fixed
// instance: 8 leaves of weight 7, root 4 and join 6, on speeds
// {3,1,4,2,5,2,3,1}.
func BenchmarkTheorem14(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for _, size := range []struct{ n, p int }{{4, 4}, {8, 8}, {16, 12}} {
		pl := platform.Random(rng, size.p, 9)
		b.Run(fmt.Sprintf("n%d_p%d", size.n, size.p), func(b *testing.B) {
			f := workflow.HomogeneousFork(5, size.n, 3)
			joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := forkalgo.Theorem14(joinless, false, pl, false, numeric.Inf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ForkJoin/n%d_p%d", size.n, size.p), func(b *testing.B) {
			fj := workflow.HomogeneousForkJoin(5, 4, size.n, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := forkalgo.Theorem14(fj, true, pl, false, numeric.Inf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	f := workflow.HomogeneousFork(4, 8, 7)
	fj := workflow.HomogeneousForkJoin(4, 6, 8, 7)
	pl := platform.New(3, 1, 4, 2, 5, 2, 3, 1)
	for _, kind := range []struct {
		name string
		pr   core.Problem
	}{{"Solve/Fork", core.Problem{Fork: &f}}, {"Solve/ForkJoin", core.Problem{ForkJoin: &fj}}} {
		for _, obj := range []core.Objective{core.MinPeriod, core.MinLatency} {
			pr := kind.pr
			pr.Platform, pr.Objective = pl, obj
			b.Run(kind.name+"/"+obj.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(pr, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkChains(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := make([]float64, 64)
	for i := range a {
		a[i] = float64(1 + rng.Intn(99))
	}
	b.Run("DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := chains.DP(a, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLocalSearch measures what hill climbing adds on top of
// the constructive chains+replication heuristic for the Theorem 9 cell.
func BenchmarkAblationLocalSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	var sumImprovement float64
	var count int
	for i := 0; i < b.N; i++ {
		p := workflow.RandomPipeline(rng, 3+rng.Intn(4), 12)
		pl := platform.Random(rng, 3+rng.Intn(3), 6)
		start, c0, err := heuristics.HetPipelinePeriodNoDPConstructive(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		_, c1, err := heuristics.LocalSearchPipelinePeriod(p, pl, start)
		if err != nil {
			b.Fatal(err)
		}
		if numeric.Greater(c1.Period, c0.Period) {
			b.Fatal("local search worsened the period")
		}
		sumImprovement += c0.Period / c1.Period
		count++
	}
	if count > 0 {
		b.ReportMetric(sumImprovement/float64(count), "mean-improvement")
	}
}

// BenchmarkParetoFront measures the generic trade-off sweep on the
// Section 2 instance.
func BenchmarkParetoFront(b *testing.B) {
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.New(2, 2, 1, 1)
	pr := core.Problem{Pipeline: &p, Platform: pl, AllowDataParallel: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		front, err := core.ParetoFront(pr, core.Options{})
		if err != nil || len(front) == 0 || !core.FrontIsMonotone(front) {
			b.Fatalf("bad front: %v (err=%v)", len(front), err)
		}
	}
}

// BenchmarkFullModel exercises the communication-aware general model of
// Sections 3.2-3.3 (Equations (1) and (2)): the homogeneous DP against the
// exact solver, each on a fresh prepared solver per op.
func BenchmarkFullModel(b *testing.B) {
	weights := []float64{8, 3, 5, 2, 7}
	data := []float64{1, 4, 2, 6, 3, 1}
	p := fullmodel.NewPipeline(weights, data)
	pl := fullmodel.Uniform([]float64{2, 2, 2, 2}, 3)
	goal := fullmodel.Goal{MinimizePeriod: true}
	b.Run("HomDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp, err := fullmodel.NewPipelinePrepared(p, pl)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, ok, err := pp.SolveHom(goal); !ok || err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp, err := fullmodel.NewPipelinePrepared(p, pl)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, ok, err := pp.SolveExact(context.Background(), goal); !ok || err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExhaustivePipeline(b *testing.B) {
	for _, p := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pipe := workflow.NewPipeline(14, 4, 2, 4)
			pl := platform.Homogeneous(p, 1)
			for i := 0; i < b.N; i++ {
				if _, ok := exhaustive.PipelinePeriod(pipe, pl, true); !ok {
					b.Fatal("no mapping")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Engine benchmarks: the parallel/caching batch solver against the serial
// path. Their ceilings are gated by BENCH_baseline.json.

// engineBenchProblems builds a workload of distinct instances replicated
// `dup` times each — the repeated-scenario shape the engine's memoization
// cache is built for.
func engineBenchProblems(seed int64, distinct, dup int) []core.Problem {
	rng := rand.New(rand.NewSource(seed))
	base := make([]core.Problem, distinct)
	for i := range base {
		pr := core.Problem{
			AllowDataParallel: rng.Intn(2) == 0,
			Objective:         core.Objective(rng.Intn(2)), // MinPeriod / MinLatency
		}
		procs := 3 + rng.Intn(3)
		if rng.Intn(2) == 0 {
			pr.Platform = platform.Homogeneous(procs, float64(1+rng.Intn(3)))
		} else {
			pr.Platform = platform.Random(rng, procs, 5)
		}
		stages := 3 + rng.Intn(3)
		if rng.Intn(2) == 0 {
			g := workflow.RandomPipeline(rng, stages, 9)
			pr.Pipeline = &g
		} else {
			g := workflow.RandomFork(rng, stages, 9)
			pr.Fork = &g
		}
		base[i] = pr
	}
	problems := make([]core.Problem, 0, distinct*dup)
	for d := 0; d < dup; d++ {
		problems = append(problems, base...)
	}
	return problems
}

// BenchmarkEngineSolveBatch contrasts solving N instances serially with
// the engine's worker-pool + memoization batch path.
func BenchmarkEngineSolveBatch(b *testing.B) {
	problems := engineBenchProblems(15, 16, 4)
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pr := range problems {
				if _, err := core.Solve(pr, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.SolveBatch(context.Background(), problems, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineParetoFront contrasts the serial walk of
// core.ParetoFront (a min-period solve, then three cold bounded solves
// per point) with the engine-backed sweep (the front pass plus one
// bounded solve per point on exactly-solved instances) on a
// heterogeneous 8-processor NP-hard pipeline instance — the acceptance
// benchmark of the engine refactor.
func BenchmarkEngineParetoFront(b *testing.B) {
	p := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9)
	pl := platform.New(5, 4, 3, 3, 2, 2, 1, 1)
	pr := core.Problem{Pipeline: &p, Platform: pl, AllowDataParallel: true}

	var serialFront, engineFront []core.Solution
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			front, err := core.ParetoFront(pr, core.Options{})
			if err != nil || len(front) == 0 {
				b.Fatalf("bad front: %v (err=%v)", len(front), err)
			}
			serialFront = front
		}
	})
	b.Run("Engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			front, err := engine.ParetoFront(context.Background(), pr, core.Options{})
			if err != nil || len(front) == 0 {
				b.Fatalf("bad front: %v (err=%v)", len(front), err)
			}
			engineFront = front
		}
	})
	if serialFront != nil && engineFront != nil && !reflect.DeepEqual(serialFront, engineFront) {
		b.Fatal("engine front diverges from serial front")
	}
}

// BenchmarkSolveSingleLarge measures ONE big NP-hard exhaustive solve —
// not a batch — serial versus the intra-solve partitioned search
// (Options.Parallelism), on an 8-leaf fork over a heterogeneous
// 6-processor platform under min-latency (the fork scan shards the exact
// serial workload, so the speedup tracks core count). Parallel/-cpu N
// runs N workers sharing the atomic incumbent bound; at -cpu 1 both
// sub-benchmarks are the serial path (cpuLine gives every run of the
// line one worker, its first included), so the bare-name baseline stays
// a GOMAXPROCS=1 measurement. The mapping is asserted byte-identical between the two
// paths — the determinism contract the parallel search is built around.
func BenchmarkSolveSingleLarge(b *testing.B) {
	f := workflow.NewFork(5, 7, 3, 9, 4, 6, 2, 8, 5)
	pl := platform.New(5, 4, 3, 2, 6, 1)
	pr := core.Problem{Fork: &f, Platform: pl, AllowDataParallel: true, Objective: core.MinLatency}
	opts := core.Options{MaxExhaustiveForkStages: 9, MaxExhaustiveForkProcs: pl.Processors()}

	var serial, parallel core.Solution
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(pr, opts)
			if err != nil || !sol.Feasible || !sol.Exact {
				b.Fatalf("bad solve: %+v (err=%v)", sol, err)
			}
			serial = sol
		}
	})
	lineCPUs := cpuLine()
	b.Run("Parallel", func(b *testing.B) {
		popts := opts
		popts.Parallelism = lineCPUs()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(pr, popts)
			if err != nil || !sol.Feasible || !sol.Exact {
				b.Fatalf("bad solve: %+v (err=%v)", sol, err)
			}
			parallel = sol
		}
	})
	if serial.ForkMapping != nil && parallel.ForkMapping != nil &&
		!reflect.DeepEqual(serial, parallel) {
		b.Fatal("parallel solve diverges from serial solve")
	}
}

// cpuLine returns the Options.Parallelism of each run of one
// sub-benchmark: all CPUs of the -cpu line the run measures. The testing
// package runs a sub-benchmark once before it sets GOMAXPROCS to the first
// -cpu value, and at -benchtime 1x that run is the first line's
// measurement; so the first run takes the first -cpu value, and every
// later run the GOMAXPROCS its line set.
func cpuLine() func() int {
	first := true
	return func() int {
		cpus := runtime.GOMAXPROCS(0)
		if first {
			first = false
			list, _, _ := strings.Cut(flag.Lookup("test.cpu").Value.String(), ",")
			if n, err := strconv.Atoi(strings.TrimSpace(list)); err == nil {
				cpus = n
			}
		}
		if cpus < 2 {
			return 1
		}
		return -cpus
	}
}

// BenchmarkSolveSP contrasts the registry's two strategies for a
// series-parallel instance. Decomposed reduces the DAG onto a legacy
// cell (here: fork-join) and solves that cell exactly — the path
// core.Solve takes whenever the reduction succeeds. MonolithicAnytime
// runs the block-model budgeted search on the very same DAG without
// reducing — the path irreducible DAGs take under a budget. The
// decomposed solve is asserted exact, and the monolithic incumbent may
// never beat it (the legacy cell's replicated mappings are a superset
// of single-processor blocks), so the benchmark doubles as a
// correctness check on the SP pipeline.
func BenchmarkSolveSP(b *testing.B) {
	steps := []workflow.SPStep{{Name: "root", Weight: 5}}
	var after []string
	for i, w := range []float64{7, 3, 9, 4} {
		name := fmt.Sprintf("l%d", i)
		steps = append(steps, workflow.SPStep{Name: name, Weight: w, After: []string{"root"}})
		after = append(after, name)
	}
	steps = append(steps, workflow.SPStep{Name: "join", Weight: 2, After: after})
	g := workflow.NewSP(steps...)
	pl := platform.New(5, 4, 3, 2)
	pr := core.Problem{SP: &g, Platform: pl, Objective: core.MinPeriod}

	var decomposed core.Solution
	b.Run("Decomposed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(pr, core.Options{})
			if err != nil || !sol.Feasible || !sol.Exact ||
				sol.SPMapping == nil || sol.SPMapping.Reduced != workflow.KindForkJoin {
				b.Fatalf("bad solve: %+v (err=%v)", sol, err)
			}
			decomposed = sol
		}
	})
	b.Run("MonolithicAnytime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blocks, cost, _, feasible, err := spdecomp.Budgeted(
				context.Background(), g, pl, spdecomp.Goal{}, 1, 2*time.Millisecond)
			if err != nil || !feasible || len(blocks) == 0 {
				b.Fatalf("bad budgeted solve: %v feasible=%v (err=%v)", cost, feasible, err)
			}
			if decomposed.Feasible && numeric.Less(cost.Period, decomposed.Cost.Period) {
				b.Fatalf("budgeted period %g beats the exact optimum %g", cost.Period, decomposed.Cost.Period)
			}
		}
	})
}

// irreducibleSP returns the fixed 9-step layered DAG with crossing
// dependencies used by the SP parallelism benchmarks. The crossings (d
// depends on both a and b, which have disjoint other successors) defeat
// the series/parallel reduction, so core.Solve must run the monolithic
// block enumeration — the path the sharded parallel search accelerates.
func irreducibleSP(b *testing.B) workflow.SP {
	g := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 7},
		workflow.SPStep{Name: "b", Weight: 5},
		workflow.SPStep{Name: "c", Weight: 3, After: workflow.After("a")},
		workflow.SPStep{Name: "d", Weight: 9, After: workflow.After("a", "b")},
		workflow.SPStep{Name: "e", Weight: 4, After: workflow.After("b")},
		workflow.SPStep{Name: "f", Weight: 6, After: workflow.After("c", "d")},
		workflow.SPStep{Name: "g", Weight: 2, After: workflow.After("d", "e")},
		workflow.SPStep{Name: "h", Weight: 8, After: workflow.After("f", "g")},
		workflow.SPStep{Name: "i", Weight: 5, After: workflow.After("h")},
	)
	if _, ok := spdecomp.Reduce(g); ok {
		b.Fatal("benchmark fixture reduced to a legacy kind; the SP block search would be bypassed")
	}
	return g
}

// BenchmarkSolveSPParallel measures ONE irreducible SP block enumeration
// — serial versus the sharded parallel search (Options.Parallelism) —
// mirroring BenchmarkSolveSingleLarge for the SP kind. At -cpu 1 both
// sub-benchmarks are the serial path (cpuLine gives every run of the
// line one worker); at -cpu 4 the Parallel sub runs four workers sharing
// the atomic incumbent bound. The solutions are asserted byte-identical —
// the determinism contract of the sharded scan.
func BenchmarkSolveSPParallel(b *testing.B) {
	g := irreducibleSP(b)
	pl := platform.New(5, 4, 3, 2, 6, 1)
	pr := core.Problem{SP: &g, Platform: pl, Objective: core.MinPeriod}
	opts := core.Options{MaxExhaustiveForkStages: 9, MaxExhaustiveForkProcs: pl.Processors()}

	var serial, parallel core.Solution
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(pr, opts)
			if err != nil || !sol.Feasible || !sol.Exact || sol.SPMapping == nil {
				b.Fatalf("bad solve: %+v (err=%v)", sol, err)
			}
			serial = sol
		}
	})
	lineCPUs := cpuLine()
	b.Run("Parallel", func(b *testing.B) {
		popts := opts
		popts.Parallelism = lineCPUs()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(pr, popts)
			if err != nil || !sol.Feasible || !sol.Exact || sol.SPMapping == nil {
				b.Fatalf("bad solve: %+v (err=%v)", sol, err)
			}
			parallel = sol
		}
	})
	if serial.SPMapping != nil && parallel.SPMapping != nil &&
		!reflect.DeepEqual(serial, parallel) {
		b.Fatal("parallel SP solve diverges from serial solve")
	}
}

// BenchmarkPortfolio times one anytime portfolio member, the greedy
// hill-climber, for a fixed number of moves on a 10-processor instance
// of each NP-hard kind under min-period with data-parallelism: with a
// stall window longer than the run and no exact member, every op
// evaluates the same candidates. A fork runs as a fork-join without a
// join.
func BenchmarkPortfolio(b *testing.B) {
	cfg := anytime.Config{Workers: 1, Seed: 1, MaxIterations: 5000, StallIterations: 1 << 30}
	spec := anytime.Spec{MinimizePeriod: true, AllowDP: true}
	pl := platform.New(5, 4, 3, 2, 6, 1, 5, 3, 2, 4)
	p := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9, 6, 8, 2, 11)
	f := workflow.NewFork(5, 7, 3, 9, 4, 6, 2, 8, 5, 3, 7)
	joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
	fj := workflow.ForkJoin{Root: f.Root, Weights: f.Weights, Join: 4}
	bench := func(name string, solve func(context.Context) (anytime.Result, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := solve(context.Background())
				if err != nil || !res.Feasible || res.Iterations != cfg.MaxIterations {
					b.Fatalf("bad run: %+v (err=%v)", res, err)
				}
			}
		})
	}
	bench("Pipeline", func(ctx context.Context) (anytime.Result, error) {
		return anytime.SolvePipeline(ctx, p, pl, spec, []mapping.PipelineMapping{mapping.ReplicateAllPipeline(p, pl)}, cfg)
	})
	bench("Fork", func(ctx context.Context) (anytime.Result, error) {
		seed := mapping.ReplicateAllForkJoin(joinless, pl)
		seed.Blocks[0].Join = false
		return anytime.SolveForkJoin(ctx, joinless, false, pl, spec, []mapping.ForkJoinMapping{seed}, cfg)
	})
	bench("ForkJoin", func(ctx context.Context) (anytime.Result, error) {
		return anytime.SolveForkJoin(ctx, fj, true, pl, spec, []mapping.ForkJoinMapping{mapping.ReplicateAllForkJoin(fj, pl)}, cfg)
	})
}

// BenchmarkCommPipelinePareto sweeps the full trade-off front of a
// heterogeneous communication-aware pipeline — the acceptance benchmark
// of the prepared comm solvers. Serial is the walk of core.ParetoFront
// (one cold solve per bound); Engine routes the sweep through the
// engine's prepared-solver pool, so the platform table and the
// interval-DP scratch are built once, one front pass names every front
// latency, and every bound after it is a warm solve. The fronts are
// asserted byte-identical.
func BenchmarkCommPipelinePareto(b *testing.B) {
	p := fullmodel.NewPipeline(
		[]float64{8, 3, 5, 2, 7, 4},
		[]float64{1, 4, 2, 6, 3, 2, 1},
	)
	pl := platform.New(5, 4, 3, 2, 2)
	pr := core.Problem{CommPipeline: &p, Bandwidth: &fullmodel.Bandwidth{Uniform: 2}, Platform: pl}

	var serialFront, engineFront []core.Solution
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			front, err := core.ParetoFront(pr, core.Options{})
			if err != nil || len(front) == 0 {
				b.Fatalf("bad front: %v (err=%v)", len(front), err)
			}
			serialFront = front
		}
	})
	b.Run("Engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			front, err := engine.ParetoFront(context.Background(), pr, core.Options{})
			if err != nil || len(front) == 0 {
				b.Fatalf("bad front: %v (err=%v)", len(front), err)
			}
			engineFront = front
		}
	})
	if serialFront != nil && engineFront != nil && !reflect.DeepEqual(serialFront, engineFront) {
		b.Fatal("engine comm front diverges from serial front")
	}
}
