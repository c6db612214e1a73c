package table

import (
	"fmt"
	"math/rand"
	"strings"

	"repliflow/internal/exhaustive"
	"repliflow/internal/heuristics"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// GapReport summarizes the quality of one polynomial heuristic on one
// NP-hard cell: the distribution of heuristic/optimal ratios over random
// instances.
type GapReport struct {
	Name      string
	Cell      string
	Trials    int
	OptimalIn int // instances solved to optimality
	MeanGap   float64
	WorstGap  float64
}

// MeasureHeuristicGaps runs every dedicated heuristic against the exact
// exponential baselines on `trials` random instances each.
func MeasureHeuristicGaps(seed int64, trials int) []GapReport {
	rng := rand.New(rand.NewSource(seed))
	reports := []GapReport{
		{Name: "chains+replication+local-search", Cell: "het pipeline period, no DP (Thm 9)"},
		{Name: "contiguous-group DP", Cell: "pipeline latency, DP, het platform (Thm 5)"},
		{Name: "LPT list scheduling", Cell: "het fork latency, hom platform (Thm 12)"},
		{Name: "speed-aware greedy", Cell: "het fork period, het platform (Thm 15)"},
		{Name: "fork-join greedy", Cell: "het fork-join latency, het platform"},
	}
	record := func(r *GapReport, heurVal, optVal float64) {
		gap := heurVal / optVal
		r.Trials++
		r.MeanGap += gap
		if numeric.Eq(gap, 1) {
			r.OptimalIn++
		}
		if gap > r.WorstGap {
			r.WorstGap = gap
		}
	}

	for t := 0; t < trials; t++ {
		// Theorem 9 cell.
		{
			p := workflow.RandomPipeline(rng, 2+rng.Intn(4), 12)
			pl := platform.Random(rng, 2+rng.Intn(3), 6)
			if _, hc, err := heuristics.HetPipelinePeriodNoDP(p, pl); err == nil {
				if opt, ok := exhaustive.PipelinePeriod(p, pl, false); ok {
					record(&reports[0], hc.Period, opt.Cost.Period)
				}
			}
		}
		// Theorem 5 cell.
		{
			p := workflow.RandomPipeline(rng, 2+rng.Intn(4), 12)
			pl := platform.Random(rng, 2+rng.Intn(3), 6)
			if _, hc, err := heuristics.HetPipelineContiguousDP(p, pl, false); err == nil {
				if opt, ok := exhaustive.PipelineLatency(p, pl, true); ok {
					record(&reports[1], hc.Latency, opt.Cost.Latency)
				}
			}
		}
		// Theorem 12 cell.
		{
			f := workflow.RandomFork(rng, 2+rng.Intn(3), 12)
			pl := platform.Homogeneous(2+rng.Intn(2), 1)
			if _, hc, err := heuristics.HetForkLatencyLPT(f, pl); err == nil {
				if opt, ok := exhaustive.ForkLatency(f, pl, false); ok {
					record(&reports[2], hc.Latency, opt.Cost.Latency)
				}
			}
		}
		// Theorem 15 cell.
		{
			f := workflow.RandomFork(rng, 2+rng.Intn(3), 12)
			pl := platform.Random(rng, 2, 5)
			joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
			if _, hc, err := heuristics.HetForkJoinGreedy(joinless, false, pl, true); err == nil {
				if opt, ok := exhaustive.ForkPeriod(f, pl, false); ok {
					record(&reports[3], hc.Period, opt.Cost.Period)
				}
			}
		}
		// Fork-join cell.
		{
			fj := workflow.RandomForkJoin(rng, 1+rng.Intn(3), 9)
			pl := platform.Random(rng, 2+rng.Intn(2), 5)
			if _, hc, err := heuristics.HetForkJoinGreedy(fj, true, pl, false); err == nil {
				if opt, ok := exhaustive.ForkJoinLatency(fj, pl, false); ok {
					record(&reports[4], hc.Latency, opt.Cost.Latency)
				}
			}
		}
	}
	for i := range reports {
		if reports[i].Trials > 0 {
			reports[i].MeanGap /= float64(reports[i].Trials)
		}
	}
	return reports
}

// RenderGaps formats the gap reports.
func RenderGaps(reports []GapReport) string {
	var b strings.Builder
	b.WriteString("Heuristic quality on NP-hard cells (ratio to the exact optimum)\n")
	fmt.Fprintf(&b, "  %-34s %-44s %7s %9s %9s %9s\n",
		"heuristic", "cell", "trials", "optimal", "mean", "worst")
	for _, r := range reports {
		fmt.Fprintf(&b, "  %-34s %-44s %7d %9d %9.3f %9.3f\n",
			r.Name, r.Cell, r.Trials, r.OptimalIn, r.MeanGap, r.WorstGap)
	}
	return b.String()
}
