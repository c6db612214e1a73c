package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestAnytimeRegistryCoversNPHardCells: every NP-hard dispatch cell of a
// kind advertising the Anytime capability has a portfolio solver, and no
// polynomial cell — or cell of a kind without the capability, like the
// communication-aware variants — does.
func TestAnytimeRegistryCoversNPHardCells(t *testing.T) {
	for _, key := range AllCellKeys() {
		cl := ClassifyCell(key)
		spec := specFor(key.Kind)
		if spec == nil {
			t.Fatalf("cell %v: unregistered kind", key)
		}
		e, _ := LookupSolver(key)
		hasAnytime := e.Anytime != nil
		if want := !cl.Complexity.Polynomial() && spec.Anytime != nil; hasAnytime != want {
			t.Errorf("cell %v (%v): anytime solver registered = %v, want %v", key, cl.Complexity, hasAnytime, want)
		}
	}
}

// randomHardProblem builds a random NP-hard instance of the given kind.
// Oversized instances exceed the default exhaustive limits, small ones
// stay within them.
func randomHardProblem(rng *rand.Rand, kind workflow.Kind, oversized bool, obj Objective) Problem {
	pr := Problem{Objective: obj, AllowDataParallel: true}
	switch kind {
	case workflow.KindPipeline:
		n, p := 3+rng.Intn(3), 3+rng.Intn(2)
		if oversized {
			n, p = 10+rng.Intn(5), 12+rng.Intn(4)
		}
		pipe := workflow.RandomPipeline(rng, n, 9)
		pr.Pipeline = &pipe
		pr.Platform = platform.Random(rng, p, 5)
	case workflow.KindFork:
		n, p := 1+rng.Intn(3), 2+rng.Intn(2)
		if oversized {
			n, p = 8+rng.Intn(5), 8+rng.Intn(4)
		}
		f := workflow.RandomFork(rng, n, 9)
		pr.Fork = &f
		pr.Platform = platform.Random(rng, p, 5)
	default:
		n, p := 1+rng.Intn(2), 2+rng.Intn(2)
		if oversized {
			n, p = 8+rng.Intn(5), 8+rng.Intn(4)
		}
		fj := workflow.RandomForkJoin(rng, n, 9)
		pr.ForkJoin = &fj
		pr.Platform = platform.Random(rng, p, 5)
	}
	if obj.Bounded() {
		// A generous bound so most instances stay feasible.
		pr.Bound = 1000
	}
	return pr
}

var hardKinds = []workflow.Kind{workflow.KindPipeline, workflow.KindFork, workflow.KindForkJoin}

// TestAnytimeNeverWorseThanHeuristicCorpus is the acceptance corpus: on
// randomized oversized NP-hard instances, the budgeted portfolio never
// returns a worse objective than the unbudgeted heuristic path, and
// every result carries a non-negative gap.
func TestAnytimeNeverWorseThanHeuristicCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}
	for trial := 0; trial < 12; trial++ {
		pr := randomHardProblem(rng, hardKinds[trial%3], true, objs[trial%4])
		heur, err := Solve(pr, Options{})
		if err != nil {
			t.Fatalf("trial %d: heuristic solve: %v", trial, err)
		}
		if heur.Method != MethodHeuristic {
			t.Fatalf("trial %d: oversized instance solved by %v, want heuristic", trial, heur.Method)
		}
		any, err := Solve(pr, Options{AnytimeBudget: 60 * time.Millisecond})
		if err != nil {
			t.Fatalf("trial %d: anytime solve: %v", trial, err)
		}
		if !any.Anytime || any.Method != MethodAnytime {
			t.Fatalf("trial %d: anytime=%v method=%v, want anytime portfolio", trial, any.Anytime, any.Method)
		}
		if any.Gap < 0 {
			t.Errorf("trial %d: negative gap %g", trial, any.Gap)
		}
		if any.Iterations == 0 {
			t.Errorf("trial %d: portfolio reported zero iterations", trial)
		}
		if !heur.Feasible {
			continue // nothing to compare
		}
		if !any.Feasible {
			t.Errorf("trial %d: portfolio infeasible where the heuristic found %v", trial, heur.Cost)
			continue
		}
		ha := objectiveValue(heur.Cost, pr.Objective)
		aa := objectiveValue(any.Cost, pr.Objective)
		if aa > ha*(1+1e-9) {
			t.Errorf("trial %d (%v): anytime objective %g worse than heuristic %g", trial, CellKeyOf(pr), aa, ha)
		}
	}
}

// TestAnytimeGapZeroMatchesExhaustive: on small NP-hard instances the
// exact portfolio member finishes within the budget, so the result is
// certified (gap 0, Exact) at exactly the unbudgeted exhaustive
// optimum.
func TestAnytimeGapZeroMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	objs := []Objective{MinPeriod, MinLatency}
	for trial := 0; trial < 9; trial++ {
		pr := randomHardProblem(rng, hardKinds[trial%3], false, objs[trial%2])
		exact, err := Solve(pr, Options{})
		if err != nil {
			t.Fatalf("trial %d: exhaustive solve: %v", trial, err)
		}
		if exact.Method != MethodExhaustive {
			t.Fatalf("trial %d: small instance solved by %v, want exhaustive", trial, exact.Method)
		}
		any, err := Solve(pr, Options{AnytimeBudget: 5 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: anytime solve: %v", trial, err)
		}
		if !any.Anytime || !any.Exact {
			t.Fatalf("trial %d: want certified anytime optimum, got anytime=%v exact=%v", trial, any.Anytime, any.Exact)
		}
		if any.Gap != 0 {
			t.Errorf("trial %d: certified optimum has gap %g", trial, any.Gap)
		}
		av := objectiveValue(any.Cost, pr.Objective)
		ev := objectiveValue(exact.Cost, pr.Objective)
		if av > ev*(1+1e-9) || ev > av*(1+1e-9) {
			t.Errorf("trial %d (%v): anytime objective %g != exhaustive optimum %g", trial, CellKeyOf(pr), av, ev)
		}
	}
}

// TestAnytimeBudgetBoundsLatency: the wall clock of a budgeted solve on
// an oversized instance stays near the budget.
func TestAnytimeBudgetBoundsLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	pr := randomHardProblem(rng, workflow.KindPipeline, true, MinPeriod)
	start := time.Now()
	sol, err := Solve(pr, Options{AnytimeBudget: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("unbounded objective must always yield a feasible mapping")
	}
	// Generous slack for loaded CI machines; the point is "not minutes".
	if elapsed > 5*time.Second {
		t.Errorf("budgeted solve took %v, want roughly the 50ms budget", elapsed)
	}
}

// TestAnytimePolynomialCellsIgnoreBudget: a budget must not reroute a
// polynomial cell — the exact algorithm still answers.
func TestAnytimePolynomialCellsIgnoreBudget(t *testing.T) {
	pipe := workflow.NewPipeline(3, 5, 2)
	pr := Problem{Pipeline: &pipe, Platform: platform.Homogeneous(3, 1), Objective: MinPeriod}
	plain, err := Solve(pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := Solve(pr, Options{AnytimeBudget: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Anytime || budgeted.Method != plain.Method || budgeted.Cost != plain.Cost {
		t.Errorf("polynomial cell changed under budget: %+v vs %+v", budgeted, plain)
	}
}

// TestAnytimeCancelledContext: a dead caller context aborts the solve
// with its error rather than returning a half-baked incumbent.
func TestAnytimeCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	pr := randomHardProblem(rng, workflow.KindFork, true, MinPeriod)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, pr, Options{AnytimeBudget: 50 * time.Millisecond}); err == nil {
		t.Fatal("cancelled context produced a solution")
	}
}

// TestAnytimeInfeasibleBoundVerdict: an unreachable bound yields an
// infeasible verdict, not an error and not a bound-violating mapping.
func TestAnytimeInfeasibleBoundVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	pr := randomHardProblem(rng, workflow.KindPipeline, true, LatencyUnderPeriod)
	pr.Bound = 1e-9
	sol, err := Solve(pr, Options{AnytimeBudget: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Errorf("period bound 1e-9 reported feasible with cost %v", sol.Cost)
	}
	if !sol.Anytime {
		t.Error("infeasible verdict not marked anytime")
	}
}

// TestAnytimeForkAnswersAsFork: the portfolio runs a fork as a fork-join
// without a join, but a budgeted fork solve answers with a fork mapping
// and no fork-join one, costed bit for bit as EvalFork costs it. The
// weights and speeds are fractional, so a cost summed in another order
// would show. Oversized forks answer from the annealers, small ones
// from the exact member.
func TestAnytimeForkAnswersAsFork(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	frac := func(n int, lo, hi float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + (hi-lo)*rng.Float64()
		}
		return v
	}
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}
	for trial := 0; trial < 16; trial++ {
		n, p := 1+rng.Intn(3), 2+rng.Intn(2)
		if trial%2 == 0 {
			n, p = 8+rng.Intn(5), 8+rng.Intn(4)
		}
		f := workflow.Fork{Root: 0.5 + 9*rng.Float64(), Weights: frac(n, 0.5, 9.5)}
		pr := Problem{Fork: &f, Platform: platform.Platform{Speeds: frac(p, 0.5, 5)},
			AllowDataParallel: trial%4 < 2, Objective: objs[trial%4]}
		if pr.Objective.Bounded() {
			pr.Bound = 1000
		}
		sol, err := Solve(pr, Options{AnytimeBudget: 20 * time.Millisecond})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sol.Anytime || !sol.Feasible {
			t.Fatalf("trial %d: anytime=%v feasible=%v, want a feasible anytime answer", trial, sol.Anytime, sol.Feasible)
		}
		if sol.ForkMapping == nil || sol.ForkJoinMapping != nil {
			t.Fatalf("trial %d: fork mapping %v, fork-join mapping %v: want a fork mapping only", trial, sol.ForkMapping, sol.ForkJoinMapping)
		}
		got, err := mapping.EvalFork(f, pr.Platform, *sol.ForkMapping)
		if err != nil {
			t.Fatalf("trial %d: invalid fork mapping %v: %v", trial, *sol.ForkMapping, err)
		}
		if got != sol.Cost {
			t.Errorf("trial %d: reported cost %v, EvalFork %v", trial, sol.Cost, got)
		}
	}
}
