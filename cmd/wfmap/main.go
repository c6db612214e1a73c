// Command wfmap solves workflow mapping problem instances read from JSON
// files (or stdin) and prints the optimal (or heuristic) mapping with its
// period, latency and Table 1 classification.
//
// Usage:
//
//	wfmap [-in instance.json] [-max-exhaustive-procs N] [-budget 100ms]
//	      [-parallelism N]
//	wfmap -pareto [-stream] [-in instance.json] [-budget 500ms]
//	wfmap -parallel [-budget 500ms] instance1.json instance2.json ...
//
// With -parallel the positional instance files are solved concurrently on
// the batch engine (one worker per CPU, memoized across duplicates) and a
// summary line is printed per instance. With -budget, NP-hard instances
// are solved by the anytime portfolio: the best mapping found within the
// budget is printed together with its certified optimality gap (in
// -parallel mode the budget covers the whole batch). With -pareto
// -stream each front point is printed the moment the sweep proves it
// final (long sweeps show progress instead of a silent wait), followed
// by a summary comment; the rows are identical to the buffered -pareto
// output. With -parallelism each exhaustive solve additionally
// partitions its own search across up to N workers sharing an atomic
// incumbent bound (-1 = all CPUs on instances large enough to benefit);
// the mapping printed is byte-identical to the serial one. The instance
// JSON format is specified in docs/wire-format.md; wfgen produces
// compatible files.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
)

func main() {
	in := flag.String("in", "-", "instance JSON file ('-' for stdin)")
	maxProcs := flag.Int("max-exhaustive-procs", 0, "override the exhaustive-search processor limit for NP-hard cells (0 = default)")
	pareto := flag.Bool("pareto", false, "print the full period/latency Pareto front instead of a single solution")
	stream := flag.Bool("stream", false, "with -pareto: print each front point as soon as the sweep proves it final, plus a trailing summary comment")
	parallel := flag.Bool("parallel", false, "solve the positional instance files concurrently on the batch engine")
	budget := flag.Duration("budget", 0, "anytime budget for NP-hard instances: return the best mapping found within this duration with a certified optimality gap (0 = exhaustive/heuristic)")
	parallelism := flag.Int("parallelism", 0, "per-solve search parallelism for exhaustive solves (0 or 1 = serial, n > 1 = n workers, negative = auto up to -n, -1 = all CPUs); results are byte-identical to serial")
	flag.Parse()

	opts := core.Options{
		MaxExhaustivePipelineProcs: *maxProcs,
		AnytimeBudget:              *budget,
		Parallelism:                *parallelism,
	}
	var err error
	switch {
	case *stream && !*pareto:
		err = fmt.Errorf("-stream requires -pareto")
	case *parallel:
		err = runBatch(flag.Args(), opts, os.Stdout)
	case *pareto:
		err = runPareto(*in, opts, *stream, os.Stdout)
	default:
		err = run(*in, opts, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfmap:", err)
		os.Exit(1)
	}
}

// runBatch solves the instance files concurrently and prints one summary
// line per instance, in input order.
func runBatch(paths []string, opts core.Options, out io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-parallel requires instance files as arguments")
	}
	problems := make([]core.Problem, len(paths))
	for i, path := range paths {
		pr, err := loadProblem(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		problems[i] = pr
	}
	sols, err := engine.SolveBatch(context.Background(), problems, opts)
	if err != nil {
		return err
	}
	instance.WriteSummary(out, paths, sols)
	return nil
}

// runPareto prints the trade-off curve of the instance, swept on the
// batch engine (engine.SweepFront). A budget is a whole-sweep wall-clock
// target, shared out over the walk's solves (anytime solving on NP-hard
// instances). With stream set, each point is printed the moment the
// incremental sweep proves it final — the rows are identical to the
// buffered output, they just appear as the sweep progresses — followed
// by a summary comment line counting the points and the sweep's units
// explored.
func runPareto(path string, opts core.Options, stream bool, out io.Writer) error {
	pr, err := loadProblem(path)
	if err != nil {
		return err
	}
	// Reject an unsweepable instance before anything reaches stdout, so
	// a failure never leaves a stray header row.
	if _, err := core.NormalizeSweep(pr); err != nil {
		return err
	}
	header := func() { fmt.Fprintf(out, "%-12s %-12s %-9s %s\n", "period", "latency", "exact", "mapping") }
	printPoint := func(sol core.Solution) {
		fmt.Fprintf(out, "%-12.6g %-12.6g %-9v %s\n", sol.Cost.Period, sol.Cost.Latency, sol.Exact, mappingOf(sol))
	}
	if stream {
		header()
		stats, err := engine.New(0).SweepFront(context.Background(), pr, opts, engine.SweepObserver{
			Point: func(p engine.SweepPoint) error {
				printPoint(p.Solution)
				return nil
			},
		})
		if err != nil {
			return err
		}
		// A sweep with a front pass has one unit, the pass; a walk has
		// one per step, each finding one point.
		fmt.Fprintf(out, "# %d points, %d/%d sweep units explored (the front pass, or walk steps)\n", stats.Points, stats.Explored, stats.Total)
		return nil
	}
	front, err := engine.ParetoFront(context.Background(), pr, opts)
	if err != nil {
		return err
	}
	header()
	for _, sol := range front {
		printPoint(sol)
	}
	return nil
}

// mappingOf picks whichever mapping shape the solution carries.
func mappingOf(sol core.Solution) fmt.Stringer {
	switch {
	case sol.PipelineMapping != nil:
		return sol.PipelineMapping
	case sol.ForkMapping != nil:
		return sol.ForkMapping
	case sol.SPMapping != nil:
		return sol.SPMapping
	case sol.CommPipelineMapping != nil:
		return sol.CommPipelineMapping
	case sol.CommForkMapping != nil:
		return sol.CommForkMapping
	case sol.ForkJoinMapping != nil:
		return sol.ForkJoinMapping
	default:
		return nil
	}
}

// loadProblem reads and converts an instance file.
func loadProblem(path string) (core.Problem, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return core.Problem{}, err
		}
		defer f.Close()
		r = f
	}
	ins, err := instance.Read(r)
	if err != nil {
		return core.Problem{}, err
	}
	return ins.Problem()
}

func run(path string, opts core.Options, out io.Writer) error {
	pr, err := loadProblem(path)
	if err != nil {
		return err
	}
	sol, err := core.Solve(pr, opts)
	if err != nil {
		return err
	}
	cl := sol.Classification
	fmt.Fprintf(out, "objective:      %s\n", pr.Objective)
	if pr.Objective.Bounded() {
		fmt.Fprintf(out, "bound:          %g\n", pr.Bound)
	}
	fmt.Fprintf(out, "classification: %s (%s)\n", cl.Complexity, cl.Source)
	fmt.Fprintf(out, "method:         %s\n", sol.Method)
	if sol.Anytime {
		fmt.Fprintf(out, "gap:            <= %.4g%% (lower bound %g, %d candidates)\n",
			sol.Gap*100, sol.LowerBound, sol.Iterations)
	}
	if !sol.Feasible {
		fmt.Fprintf(out, "result:         infeasible under the given bound\n")
		if !sol.Exact {
			fmt.Fprintf(out, "note:           heuristic verdict — a feasible mapping may still exist\n")
		}
		return nil
	}
	exact := "exact optimum"
	if !sol.Exact {
		exact = "heuristic (upper bound)"
	}
	fmt.Fprintf(out, "result:         %s\n", exact)
	fmt.Fprintf(out, "period:         %g\n", sol.Cost.Period)
	fmt.Fprintf(out, "latency:        %g\n", sol.Cost.Latency)
	if sol.SPMapping != nil {
		fmt.Fprintf(out, "reduced:        %s\n", sol.SPMapping.Reduced)
	}
	if m := mappingOf(sol); m != nil {
		fmt.Fprintf(out, "mapping:        %s\n", m)
	}
	return nil
}
