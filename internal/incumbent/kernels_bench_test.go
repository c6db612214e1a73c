package incumbent_test

import (
	"context"
	"math/rand"
	"testing"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/exhaustive"
	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/spdecomp"
	"repliflow/internal/workflow"
)

// Kernel benchmarks on solve-nphard-shaped instances (the shapes of
// bench/workloads.go's npHardSpecs). BenchmarkKernel<Kind> solves a
// fixed seeded set of 8 instances cold per op, on fresh prepared
// solvers, half minimizing the period and half the latency;
// BenchmarkKernelPareto<Kind> computes the exact Pareto fronts of 3 such
// instances on a fresh engine each, whose probes are bounded solves
// on one prepared solver; for the pipeline, fork, fork-join and comm
// kinds that is the prepared front pass plus one bounded solve per
// point — for the pipeline a walk over the pass's lists, no DP solve,
// which BenchmarkKernelParetoPipeline reports as dpsolves/op. For SP,
// which has no front pass, it is a walk over the two bounded solves,
// one min-period solve and then three per point, which
// BenchmarkKernelParetoSP reports as solves/op. The bench gate holds
// them below the bisection sweeps they replaced. They time the exact
// kernels without the wire path, so a change to a kernel can be
// compared against its parent commit in alternated pairs of test
// binaries (go test -c at each commit, then -test.bench
// '^BenchmarkKernelFork$' -test.cpu 1, alternating which runs first).

func kernelWeights(r *rand.Rand, n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(1 + r.Intn(10))
	}
	return ws
}

func kernelData(r *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + r.Intn(5))
	}
	return d
}

// kernelInstances is the number of instances one op solves.
const kernelInstances = 8

// mustFind stops a kernel benchmark whose solve of instance k failed or
// found nothing: every benchmark goal is unbounded, so every instance
// has an optimum, and a kernel that lost it must not time as a speedup.
func mustFind(b *testing.B, k int, ok bool, err error) {
	if err != nil || !ok {
		b.Fatalf("instance %d: found=%v err=%v", k, ok, err)
	}
}

func BenchmarkKernelPipeline(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	type inst struct {
		p  workflow.Pipeline
		pl platform.Platform
		mp bool
	}
	var insts []inst
	for i := 0; i < kernelInstances; i++ {
		insts = append(insts, inst{workflow.NewPipeline(kernelWeights(r, 8+r.Intn(3))...), platform.Random(r, 6+r.Intn(2), 5), i%2 == 0})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range insts {
			pp := exhaustive.NewPipelinePrepared(in.p, in.pl, true)
			solve := pp.Latency
			if in.mp {
				solve = pp.Period
			}
			_, ok, err := solve(ctx)
			mustFind(b, k, ok, err)
		}
	}
}

func BenchmarkKernelFork(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	type inst struct {
		f  workflow.Fork
		pl platform.Platform
	}
	var insts []inst
	for i := 0; i < kernelInstances; i++ {
		insts = append(insts, inst{workflow.NewFork(float64(1+r.Intn(10)), kernelWeights(r, 5)...), platform.Random(r, 4, 5)})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range insts {
			fp := exhaustive.NewForkPrepared(in.f, in.pl, true)
			solve := fp.Latency
			if k%2 == 0 {
				solve = fp.Period
			}
			_, ok, err := solve(ctx)
			mustFind(b, k, ok, err)
		}
	}
}

func BenchmarkKernelForkJoin(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	type inst struct {
		fj workflow.ForkJoin
		pl platform.Platform
	}
	var insts []inst
	for i := 0; i < kernelInstances; i++ {
		insts = append(insts, inst{workflow.NewForkJoin(float64(1+r.Intn(10)), float64(1+r.Intn(10)), kernelWeights(r, 4)...), platform.Random(r, 4, 5)})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range insts {
			fp := exhaustive.NewForkJoinPrepared(in.fj, in.pl, true)
			solve := fp.Latency
			if k%2 == 0 {
				solve = fp.Period
			}
			_, ok, err := solve(ctx)
			mustFind(b, k, ok, err)
		}
	}
}

func BenchmarkKernelSP(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	type inst struct {
		g  workflow.SP
		pl platform.Platform
	}
	var insts []inst
	for i := 0; i < kernelInstances; i++ {
		insts = append(insts, inst{workflow.RandomSP(r, 6, 10, 4, 3), platform.Random(r, 5, 5)})
	}
	ctx := context.Background()
	before := spdecomp.MappingsCosted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range insts {
			pp, err := spdecomp.NewPrepared(in.g, in.pl)
			if err != nil {
				b.Fatal(err)
			}
			_, _, ok, err := pp.Exhaustive(ctx, spdecomp.Goal{MinimizeLatency: k%2 == 1})
			mustFind(b, k, ok, err)
		}
	}
	b.ReportMetric(float64(spdecomp.MappingsCosted()-before)/float64(b.N), "costed/op")
}

func BenchmarkKernelComm(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	type inst struct {
		p  fullmodel.Pipeline
		pl fullmodel.Platform
	}
	var insts []inst
	for i := 0; i < kernelInstances; i++ {
		p := fullmodel.NewPipeline(kernelWeights(r, 6), kernelData(r, 7))
		speeds := make([]float64, 5)
		for k := range speeds {
			speeds[k] = float64(1 + r.Intn(5))
		}
		bw := fullmodel.Bandwidth{Links: make([][]float64, 5), In: kernelData(r, 5), Out: kernelData(r, 5)}
		for u := range bw.Links {
			bw.Links[u] = kernelData(r, 5)
			bw.Links[u][u] = 0
		}
		insts = append(insts, inst{p, bw.Apply(speeds)})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range insts {
			pp, err := fullmodel.NewPipelinePrepared(in.p, in.pl)
			if err != nil {
				b.Fatal(err)
			}
			_, _, ok, err := pp.SolveExact(ctx, fullmodel.Goal{MinimizePeriod: k%2 == 0})
			mustFind(b, k, ok, err)
		}
	}
}

// paretoInstances draws 3 instances of one kind for the Pareto
// benchmarks.
func paretoInstances(kind string) []core.Problem {
	r := rand.New(rand.NewSource(9))
	var out []core.Problem
	for i := 0; i < 3; i++ {
		switch kind {
		case "pipeline":
			g := workflow.NewPipeline(kernelWeights(r, 8+r.Intn(3))...)
			out = append(out, core.Problem{Pipeline: &g, Platform: platform.Random(r, 6+r.Intn(2), 5), AllowDataParallel: true})
		case "fork":
			g := workflow.NewFork(float64(1+r.Intn(10)), kernelWeights(r, 5)...)
			out = append(out, core.Problem{Fork: &g, Platform: platform.Random(r, 4, 5), AllowDataParallel: true})
		case "forkjoin":
			g := workflow.NewForkJoin(float64(1+r.Intn(10)), float64(1+r.Intn(10)), kernelWeights(r, 4)...)
			out = append(out, core.Problem{ForkJoin: &g, Platform: platform.Random(r, 4, 5), AllowDataParallel: true})
		case "sp":
			g := workflow.RandomSP(r, 6, 10, 4, 3)
			out = append(out, core.Problem{SP: &g, Platform: platform.Random(r, 5, 5)})
		case "comm":
			g := fullmodel.NewPipeline(kernelWeights(r, 6), kernelData(r, 7))
			bw := &fullmodel.Bandwidth{Links: make([][]float64, 5), In: kernelData(r, 5), Out: kernelData(r, 5)}
			for u := range bw.Links {
				bw.Links[u] = kernelData(r, 5)
				bw.Links[u][u] = 0
			}
			out = append(out, core.Problem{CommPipeline: &g, Platform: platform.Random(r, 5, 5), Bandwidth: bw})
		}
	}
	return out
}

// benchmarkPareto times the fronts of one kind and returns the engine
// solves (cache misses) per op; each front runs on a fresh engine, as
// engine.ParetoFront does.
func benchmarkPareto(b *testing.B, kind string) float64 {
	prs := paretoInstances(kind)
	var solves uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range prs {
			e := engine.New(0)
			front, err := e.ParetoFront(context.Background(), pr, core.Options{})
			if err != nil || len(front) == 0 {
				b.Fatalf("%s: front of %d points, err %v", kind, len(front), err)
			}
			solves += e.Stats().Misses
		}
	}
	return float64(solves) / float64(b.N)
}

func BenchmarkKernelParetoPipeline(b *testing.B) {
	before := exhaustive.PipelineDPSolves()
	benchmarkPareto(b, "pipeline")
	b.ReportMetric(float64(exhaustive.PipelineDPSolves()-before)/float64(b.N), "dpsolves/op")
}

func BenchmarkKernelParetoFork(b *testing.B)     { benchmarkPareto(b, "fork") }
func BenchmarkKernelParetoForkJoin(b *testing.B) { benchmarkPareto(b, "forkjoin") }
func BenchmarkKernelParetoComm(b *testing.B)     { benchmarkPareto(b, "comm") }

func BenchmarkKernelParetoSP(b *testing.B) {
	b.ReportMetric(benchmarkPareto(b, "sp"), "solves/op")
}
