package sim

import (
	"math"
	"math/rand"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

const datasets = 2000

// relErr returns |a-b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

func TestReplicatedStationMatchesRoundRobinModel(t *testing.T) {
	// W=12 replicated on speeds {2,1}: the paper's round-robin model gives
	// period 12/(2*1) = 6 and delay 12/1 = 12. A demand-driven scheme would
	// reach period 4 — the simulator must NOT (Section 3.3).
	p := workflow.NewPipeline(12)
	pl := platform.New(2, 1)
	m := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.Replicated, 0, 1),
	}}
	analytic, err := mapping.EvalPipeline(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SimulatePipeline(p, pl, m, Arrivals(datasets, 0))
	if err != nil {
		t.Fatal(err)
	}
	if relErr(tr.SteadyStatePeriod(), analytic.Period) > 0.01 {
		t.Errorf("saturated steady period %v, analytic %v", tr.SteadyStatePeriod(), analytic.Period)
	}
	if tr.SteadyStatePeriod() < 5.5 {
		t.Errorf("steady period %v suggests demand-driven behaviour (expected 6, not 4)", tr.SteadyStatePeriod())
	}
	// Paced at the analytic period, the worst latency equals tmax.
	tr, err = SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(tr.MaxLatency(), analytic.Latency) {
		t.Errorf("paced max latency %v, analytic %v", tr.MaxLatency(), analytic.Latency)
	}
}

func TestDataParallelStationDeterministic(t *testing.T) {
	p := workflow.NewPipeline(12)
	pl := platform.New(2, 1)
	m := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
	}}
	analytic, _ := mapping.EvalPipeline(p, pl, m) // period = latency = 4
	tr, err := SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(tr.MaxLatency(), 4) {
		t.Errorf("max latency %v, want 4", tr.MaxLatency())
	}
	if relErr(tr.SteadyStatePeriod(), 4) > 0.01 {
		t.Errorf("steady period %v, want 4", tr.SteadyStatePeriod())
	}
}

func TestSection2MappingSimulation(t *testing.T) {
	// The Section 2 mapping: S1 data-parallel on P1,P2; S2..S4 on P3
	// (period 10, latency 17). Both stations are deterministic, so the
	// simulated values match exactly.
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.Homogeneous(3, 1)
	m := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2),
	}}
	analytic, _ := mapping.EvalPipeline(p, pl, m)
	tr, err := SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(tr.MaxLatency(), analytic.Latency) {
		t.Errorf("max latency %v, analytic %v", tr.MaxLatency(), analytic.Latency)
	}
	sat, _ := SimulatePipeline(p, pl, m, Arrivals(datasets, 0))
	if relErr(sat.SteadyStatePeriod(), analytic.Period) > 0.01 {
		t.Errorf("steady period %v, analytic %v", sat.SteadyStatePeriod(), analytic.Period)
	}
}

func TestRandomPipelineMappingsAgainstAnalyticModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
		pl := platform.Random(rng, 1+rng.Intn(4), 4)
		m := randomMapping(rng, p, pl)
		analytic, err := mapping.EvalPipeline(p, pl, m)
		if err != nil {
			t.Fatal(err)
		}
		// Saturated throughput converges to the analytic period.
		sat, err := SimulatePipeline(p, pl, m, Arrivals(datasets, 0))
		if err != nil {
			t.Fatal(err)
		}
		if relErr(sat.SteadyStatePeriod(), analytic.Period) > 0.02 {
			t.Errorf("trial %d: steady period %v vs analytic %v (mapping %v)",
				trial, sat.SteadyStatePeriod(), analytic.Period, m)
		}
		// Paced at the analytic period the latency never exceeds the
		// analytic bound.
		paced, err := SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period))
		if err != nil {
			t.Fatal(err)
		}
		if numeric.Greater(paced.MaxLatency(), analytic.Latency) {
			t.Errorf("trial %d: paced max latency %v exceeds analytic %v (mapping %v)",
				trial, paced.MaxLatency(), analytic.Latency, m)
		}
	}
}

// randomMapping builds a random valid pipeline mapping.
func randomMapping(rng *rand.Rand, p workflow.Pipeline, pl platform.Platform) mapping.PipelineMapping {
	n := p.Stages()
	procs := rng.Perm(pl.Processors())
	q := 1 + rng.Intn(minInt(n, pl.Processors()))
	cuts := rng.Perm(n - 1)
	if len(cuts) > q-1 {
		cuts = cuts[:q-1]
	} else {
		q = len(cuts) + 1
	}
	sortInts(cuts)
	var m mapping.PipelineMapping
	first, pi := 0, 0
	extra := pl.Processors() - q
	for i := 0; i < q; i++ {
		last := n - 1
		if i < len(cuts) {
			last = cuts[i]
		}
		take := 1
		if extra > 0 {
			b := rng.Intn(extra + 1)
			take += b
			extra -= b
		}
		mode := mapping.Replicated
		if first == last && rng.Intn(2) == 0 {
			mode = mapping.DataParallel
		}
		m.Intervals = append(m.Intervals, mapping.PipelineInterval{
			First: first, Last: last,
			Assignment: mapping.Assignment{Procs: procs[pi : pi+take], Mode: mode},
		})
		pi += take
		first = last + 1
	}
	return m
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestForkSimulationMatchesAnalytic(t *testing.T) {
	f := workflow.NewFork(2, 3, 6)
	pl := platform.New(1, 2)
	m := mapping.ForkMapping{Blocks: []mapping.ForkBlock{
		mapping.NewForkBlock(true, []int{0}, mapping.Replicated, 0),
		mapping.NewForkBlock(false, []int{1}, mapping.Replicated, 1),
	}}
	analytic, err := mapping.EvalFork(f, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	paced, err := SimulateFork(f, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(paced.MaxLatency(), analytic.Latency) {
		t.Errorf("paced max latency %v, analytic %v", paced.MaxLatency(), analytic.Latency)
	}
	sat, err := SimulateFork(f, pl, m, Arrivals(datasets, 0))
	if err != nil {
		t.Fatal(err)
	}
	if relErr(sat.SteadyStatePeriod(), analytic.Period) > 0.02 {
		t.Errorf("steady period %v, analytic %v", sat.SteadyStatePeriod(), analytic.Period)
	}
}

func TestForkRootDataParallelSimulation(t *testing.T) {
	f := workflow.NewFork(8, 4)
	pl := platform.New(1, 3, 2)
	m := mapping.ForkMapping{Blocks: []mapping.ForkBlock{
		mapping.NewForkBlock(true, nil, mapping.DataParallel, 0, 1),
		mapping.NewForkBlock(false, []int{0}, mapping.Replicated, 2),
	}}
	analytic, _ := mapping.EvalFork(f, pl, m) // latency 4, period 2
	paced, err := SimulateFork(f, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(paced.MaxLatency(), analytic.Latency) {
		t.Errorf("paced max latency %v, analytic %v", paced.MaxLatency(), analytic.Latency)
	}
}

func TestRandomForkMappingsAgainstAnalyticModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		pl := platform.Random(rng, 2+rng.Intn(2), 4)
		// Root block with a random prefix of leaves on P0, the remaining
		// leaves on the other processors.
		n0 := rng.Intn(f.Leaves() + 1)
		blocks := []mapping.ForkBlock{
			mapping.NewForkBlock(true, leafSeq(0, n0), mapping.Replicated, 0),
		}
		if n0 < f.Leaves() {
			rest := leafSeq(n0, f.Leaves()-n0)
			procs := make([]int, pl.Processors()-1)
			for i := range procs {
				procs[i] = i + 1
			}
			blocks = append(blocks, mapping.NewForkBlock(false, rest, mapping.Replicated, procs...))
		}
		m := mapping.ForkMapping{Blocks: blocks}
		analytic, err := mapping.EvalFork(f, pl, m)
		if err != nil {
			t.Fatal(err)
		}
		sat, err := SimulateFork(f, pl, m, Arrivals(datasets, 0))
		if err != nil {
			t.Fatal(err)
		}
		if relErr(sat.SteadyStatePeriod(), analytic.Period) > 0.02 {
			t.Errorf("trial %d: steady period %v vs analytic %v", trial, sat.SteadyStatePeriod(), analytic.Period)
		}
		paced, err := SimulateFork(f, pl, m, Arrivals(datasets, analytic.Period))
		if err != nil {
			t.Fatal(err)
		}
		if numeric.Greater(paced.MaxLatency(), analytic.Latency) {
			t.Errorf("trial %d: paced max latency %v exceeds analytic %v", trial, paced.MaxLatency(), analytic.Latency)
		}
	}
}

func leafSeq(from, count int) []int {
	if count == 0 {
		return nil
	}
	out := make([]int, count)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// meanLatencyHalves returns the mean latency over the first and second
// halves of the trace. A second half markedly above the first indicates an
// unsustainable input rate (backlog growth) — the dynamic signature of
// pacing the input below the mapping's period.
func meanLatencyHalves(tr Trace) (first, second float64) {
	n := len(tr.Completions)
	if n == 0 {
		return 0, 0
	}
	mid := n / 2
	for i := 0; i < n; i++ {
		l := tr.Completions[i] - tr.Arrivals[i]
		if i < mid {
			first += l
		} else {
			second += l
		}
	}
	if mid > 0 {
		first /= float64(mid)
	}
	if n-mid > 0 {
		second /= float64(n - mid)
	}
	return first, second
}

func TestOverdrivenInputGrowsBacklog(t *testing.T) {
	// Pacing the input 20% below the analytic period must make latencies
	// grow without bound — the dynamic witness that the analytic period is
	// the maximum sustainable rate. Pacing at the analytic period keeps
	// them flat.
	p := workflow.NewPipeline(14, 4, 2, 4)
	pl := platform.Homogeneous(3, 1)
	m := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.DataParallel, 0, 1),
		mapping.NewPipelineInterval(1, 3, mapping.Replicated, 2),
	}}
	analytic, _ := mapping.EvalPipeline(p, pl, m)

	over, err := SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period*0.8))
	if err != nil {
		t.Fatal(err)
	}
	firstHalf, secondHalf := meanLatencyHalves(over)
	if secondHalf < 2*firstHalf {
		t.Errorf("overdriven input did not grow the backlog: halves %v / %v", firstHalf, secondHalf)
	}

	ok, err := SimulatePipeline(p, pl, m, Arrivals(datasets, analytic.Period))
	if err != nil {
		t.Fatal(err)
	}
	firstHalf, secondHalf = meanLatencyHalves(ok)
	if relErr(firstHalf, secondHalf) > 0.05 {
		t.Errorf("sustainable input grew the backlog: halves %v / %v", firstHalf, secondHalf)
	}
}

func TestSimulateRejectsInvalidInput(t *testing.T) {
	p := workflow.NewPipeline(1)
	pl := platform.New(1)
	good := mapping.PipelineMapping{Intervals: []mapping.PipelineInterval{
		mapping.NewPipelineInterval(0, 0, mapping.Replicated, 0),
	}}
	if _, err := SimulatePipeline(p, pl, good, nil); err == nil {
		t.Error("empty arrivals accepted")
	}
	bad := mapping.PipelineMapping{}
	if _, err := SimulatePipeline(p, pl, bad, Arrivals(5, 1)); err == nil {
		t.Error("invalid mapping accepted")
	}
	f := workflow.NewFork(1, 1)
	if _, err := SimulateFork(f, pl, mapping.ForkMapping{}, Arrivals(5, 1)); err == nil {
		t.Error("invalid fork mapping accepted")
	}
}

func TestArrivalsAndTraceHelpers(t *testing.T) {
	arr := Arrivals(4, 2.5)
	if arr[0] != 0 || arr[3] != 7.5 {
		t.Fatalf("Arrivals = %v", arr)
	}
	tr := Trace{Arrivals: []float64{0, 1}, Completions: []float64{3, 5}}
	if tr.MaxLatency() != 4 {
		t.Errorf("MaxLatency = %v", tr.MaxLatency())
	}
	if (Trace{}).SteadyStatePeriod() != 0 {
		t.Error("empty trace period != 0")
	}
}
