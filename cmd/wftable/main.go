// Command wftable regenerates the artifacts of Benoit & Robert (RR-6308):
//
//   - Figures 1 and 2 (the pipeline and fork application graphs),
//   - the Section 2 worked example (every hand-derived number, including
//     the two documented discrepancies),
//   - Table 1, with every cell verified empirically: polynomial cells by
//     agreement between the paper's algorithm and exhaustive search,
//     NP-hard cells by exact-vs-heuristic comparison,
//   - the five NP-hardness reductions (iff-property on random instances),
//   - the registry cells beyond Table 1: the series-parallel and
//     communication-aware kinds with their classifications.
//
// Usage:
//
//	wftable [-trials N] [-seed S] [-skip-table1]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repliflow/internal/core"
	"repliflow/internal/table"
	"repliflow/internal/workflow"
)

func main() {
	trials := flag.Int("trials", 10, "random instances per Table 1 cell and per reduction")
	seed := flag.Int64("seed", 1, "random seed")
	skipTable1 := flag.Bool("skip-table1", false, "skip the Table 1 verification (slowest part)")
	workers := flag.Int("workers", 0, "verify Table 1 cells concurrently with this many workers (0 = sequential)")
	flag.Parse()
	runWorkers(os.Stdout, *trials, *seed, *skipTable1, *workers)
}

func runWorkers(out io.Writer, trials int, seed int64, skipTable1 bool, workers int) {
	verify := func() []table.Evidence {
		if workers > 0 {
			return table.VerifyTable1Parallel(seed, trials, workers)
		}
		return table.VerifyTable1(seed, trials)
	}
	runWith(out, trials, seed, skipTable1, verify)
}

func run(out io.Writer, trials int, seed int64, skipTable1 bool) {
	runWith(out, trials, seed, skipTable1, func() []table.Evidence {
		return table.VerifyTable1(seed, trials)
	})
}

func runWith(out io.Writer, trials int, seed int64, skipTable1 bool, verify func() []table.Evidence) {
	fmt.Fprintln(out, "=== Figure 1: the application pipeline (example: Section 2 weights) ===")
	fmt.Fprintln(out, workflow.NewPipeline(14, 4, 2, 4).Render())
	fmt.Fprintln(out, "=== Figure 2: the application fork ===")
	fmt.Fprintln(out, workflow.NewFork(2, 1, 3, 5).Render())

	fmt.Fprintln(out, "=== Section 2 worked example ===")
	fmt.Fprintln(out, table.RenderSection2(table.Section2Report()))

	if !skipTable1 {
		fmt.Fprintln(out, "=== Table 1: complexity map, verified cell by cell ===")
		fmt.Fprintln(out, table.RenderTable1(verify()))
	}

	fmt.Fprintln(out, "=== NP-hardness reductions ===")
	fmt.Fprintln(out, table.RenderReductions(table.VerifyReductions(seed, trials)))

	fmt.Fprintln(out, "=== Heuristic quality on NP-hard cells ===")
	fmt.Fprintln(out, table.RenderGaps(table.MeasureHeuristicGaps(seed, trials)))

	fmt.Fprintln(out, "=== Registry: cells beyond Table 1 ===")
	renderRegistry(out)
}

// renderRegistry lists every dispatch cell outside the paper's three
// simplified-model kinds — the series-parallel and communication-aware
// kinds added behind the capability registry — with its classification.
func renderRegistry(out io.Writer) {
	legacy := map[workflow.Kind]bool{
		workflow.KindPipeline: true, workflow.KindFork: true, workflow.KindForkJoin: true,
	}
	for _, key := range core.AllCellKeys() {
		if legacy[key.Kind] {
			continue
		}
		cl := core.ClassifyCell(key)
		fmt.Fprintf(out, "%-70s %-8s %s\n", key, cl.Complexity, cl.Source)
	}
}
