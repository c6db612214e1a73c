package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repliflow/internal/core"
)

// largeHardInstance is a heterogeneous NP-hard pipeline far beyond the
// exhaustive limits: 18 stages on 16 processors with data-parallelism
// (Theorem 5 cell). Unbudgeted, it falls back to heuristics; budgeted,
// the anytime portfolio owns it.
const largeHardInstance = `{
	"pipeline": {"weights": [14, 4, 2, 4, 7, 3, 9, 5, 6, 8, 2, 11, 3, 5, 9, 4, 6, 7]},
	"platform": {"speeds": [2, 2, 1, 1, 3, 1, 2, 1, 1, 2, 3, 1, 2, 3, 1, 2]},
	"allowDataParallel": true,
	"objective": "min-period"`

// TestSolveDeadlineReturnsAnytimeIncumbent is the deadline-expiry
// integration test: a large heterogeneous NP-hard instance with a 50ms
// request deadline and a budget inside it must return 200 with a
// feasible incumbent carrying a finite non-negative gap — never a
// 500/timeout.
func TestSolveDeadlineReturnsAnytimeIncumbent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := largeHardInstance + `, "timeoutMs": 50, "budgetMs": 35}`
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v, want roughly the 50ms deadline", elapsed)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sol := sr.Solution
	if !sol.Anytime {
		t.Error("solution not marked anytime")
	}
	if !sol.Feasible {
		t.Error("incumbent infeasible on an unbounded objective")
	}
	if sol.Method != "anytime" && !sol.Exact {
		t.Errorf("method = %q, want anytime", sol.Method)
	}
	if sol.Gap == nil {
		t.Fatal("missing gap")
	}
	if g := *sol.Gap; g < 0 || g > 1e12 {
		t.Errorf("gap = %g, want finite and >= 0", g)
	}
	if sol.LowerBound <= 0 {
		t.Errorf("lowerBound = %g, want > 0", sol.LowerBound)
	}
	if sol.Period <= 0 {
		t.Errorf("period = %g, want > 0", sol.Period)
	}
	if sol.Complexity != "np-hard" {
		t.Errorf("complexity = %q, want np-hard", sol.Complexity)
	}
}

// TestBatchBudgetSplitsAcrossInstances: a budgeted batch of NP-hard
// instances returns anytime certification for every solution and
// finishes in bounded time.
func TestBatchBudgetSplitsAcrossInstances(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Four distinct large instances (distinct first weights, so the
	// engine cannot dedup them).
	var instances []string
	for i := 0; i < 4; i++ {
		instances = append(instances, strings.Replace(largeHardInstance+`}`, `[14,`, fmt.Sprintf(`[%d,`, 14+i), 1))
	}
	body := fmt.Sprintf(`{"instances": [%s], "budgetMs": 120}`, strings.Join(instances, ","))
	resp, out := postJSON(t, ts.URL+"/v1/solve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, out)
	}
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Solutions) != 4 {
		t.Fatalf("got %d solutions, want 4", len(br.Solutions))
	}
	for i, sol := range br.Solutions {
		if !sol.Anytime || sol.Gap == nil || *sol.Gap < 0 {
			t.Errorf("solution %d lacks anytime certification: anytime=%v gap=%v", i, sol.Anytime, sol.Gap)
		}
	}
}

// TestDefaultBudgetAppliesWithoutRequestBudget: a server configured
// with a default budget solves NP-hard requests anytime without any
// per-request opt-in.
func TestDefaultBudgetAppliesWithoutRequestBudget(t *testing.T) {
	srv, ts := newTestServer(t, Config{DefaultBudget: 30 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/solve", largeHardInstance+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Solution.Anytime {
		t.Error("default budget did not engage anytime solving")
	}
	if got := srv.anytimeSolves.Load(); got == 0 {
		t.Error("wfserve_anytime_solves_total not incremented")
	}
}

// TestSolveOptionsPrecedence: a request budget overrides the server
// default, and a budget configured directly on Config.Options survives
// when neither is set.
func TestSolveOptionsPrecedence(t *testing.T) {
	viaOptions := New(Config{Options: core.Options{AnytimeBudget: 70 * time.Millisecond}})
	if got := viaOptions.solveOptions(0, 0).AnytimeBudget; got != 70*time.Millisecond {
		t.Errorf("Config.Options budget clobbered: %v", got)
	}
	if got := viaOptions.solveOptions(5, 0).AnytimeBudget; got != 5*time.Millisecond {
		t.Errorf("request budget not applied: %v", got)
	}
	viaDefault := New(Config{DefaultBudget: 40 * time.Millisecond})
	if got := viaDefault.solveOptions(0, 0).AnytimeBudget; got != 40*time.Millisecond {
		t.Errorf("DefaultBudget not applied: %v", got)
	}
	if got := viaDefault.solveOptions(5, 0).AnytimeBudget; got != 5*time.Millisecond {
		t.Errorf("request budget not applied over DefaultBudget: %v", got)
	}
	if got := viaDefault.solveOptions(-1, 0).AnytimeBudget; got != 0 {
		t.Errorf("budgetMs < 0 must opt out of the default budget, got %v", got)
	}
}

// TestParetoHonoursBudget: /v1/pareto accepts budgetMs and still
// returns a well-formed NDJSON front on an NP-hard instance: a budgeted
// sweep walks the two bounded problems, and its budget is a whole-sweep
// target shared out over the walk's solves.
func TestParetoHonoursBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{
		"pipeline": {"weights": [14, 4, 2, 4, 7, 3]},
		"platform": {"speeds": [2, 1, 3, 1]},
		"allowDataParallel": true,
		"objective": "min-period", "timeoutMs": 20000, "budgetMs": 500}`
	resp, body := postJSON(t, ts.URL+"/v1/pareto", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	sols, statuses := splitStream(t, body)
	if len(sols) == 0 {
		t.Fatal("empty Pareto front")
	}
	prevPeriod := 0.0
	for i, sol := range sols {
		if !sol.Feasible || sol.Period < prevPeriod {
			t.Errorf("line %d breaks the front invariant: feasible=%v period=%g after %g", i, sol.Feasible, sol.Period, prevPeriod)
		}
		prevPeriod = sol.Period
	}
	if n := len(statuses); n == 0 || statuses[n-1].Status != StreamStatusComplete {
		t.Errorf("stream missing its terminal complete line: %+v", statuses)
	}
}

// TestBudgetDoesNotDisturbPolynomialCells: a budgeted request on a
// polynomial cell still returns the exact algorithm's answer.
func TestBudgetDoesNotDisturbPolynomialCells(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := strings.TrimSuffix(strings.TrimSpace(section2), "}") + `, "budgetMs": 20}`
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solution.Anytime || !sr.Solution.Exact {
		t.Errorf("polynomial cell disturbed by budget: anytime=%v exact=%v", sr.Solution.Anytime, sr.Solution.Exact)
	}
}
