package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repliflow/internal/core"
)

// spDiamond is a series-parallel instance that is none of the three
// legacy wire shapes but collapses onto a fork-join, so the decomposer
// solves it exactly through the legacy cell.
const spDiamond = `{
	"sp": {"steps": [
		{"name": "load", "weight": 1},
		{"name": "left", "weight": 2, "after": ["load"]},
		{"name": "right", "weight": 3, "after": ["load"]},
		{"name": "merge", "weight": 1, "after": ["left", "right"]}
	]},
	"platform": {"speeds": [1, 2, 1]},
	"objective": "min-period"
}`

// spChorded adds the chord left -> right, so the DAG is irreducible:
// within the exhaustive limits it is still solved exactly in the block
// model.
const spChorded = `{
	"sp": {"steps": [
		{"name": "load", "weight": 1},
		{"name": "left", "weight": 2, "after": ["load"]},
		{"name": "right", "weight": 3, "after": ["load", "left"]},
		{"name": "merge", "weight": 1, "after": ["left", "right"]}
	]},
	"platform": {"speeds": [1, 2]},
	"objective": "min-period"
}`

// spOversized is an irreducible 8-step DAG above the default exhaustive
// limit (6 steps): the unbudgeted path answers heuristically, a budget
// produces a certified anytime incumbent.
const spOversized = `{
	"sp": {"steps": [
		{"name": "a", "weight": 2},
		{"name": "b", "weight": 3, "after": ["a"]},
		{"name": "c", "weight": 1, "after": ["a", "b"]},
		{"name": "d", "weight": 2, "after": ["b", "c"]},
		{"name": "e", "weight": 4, "after": ["d"]},
		{"name": "f", "weight": 2, "after": ["d", "e"]},
		{"name": "g", "weight": 3, "after": ["e", "f"]},
		{"name": "h", "weight": 1, "after": ["f", "g"]}
	]},
	"platform": {"speeds": [1, 2, 1]},
	"objective": "min-period"
}`

const commPipelineHom = `{
	"commPipeline": {"weights": [3, 1, 2], "data": [1, 2, 1, 1]},
	"platform": {"speeds": [1, 1], "bandwidth": {"uniform": 4}},
	"objective": "min-period"
}`

const commForkSmall = `{
	"commFork": {"root": 2, "in": 1, "broadcast": 1, "weights": [3, 1], "outs": [1, 1]},
	"platform": {"speeds": [1, 2, 1], "bandwidth": {"uniform": 2}},
	"objective": "min-period"
}`

// commPipelineHet is heterogeneous, so every solve takes the NP-hard
// exhaustive comm cell — the one the prepared pool and the sharded
// interval scan serve.
const commPipelineHet = `{
	"commPipeline": {"weights": [3, 1, 2, 2], "data": [1, 2, 1, 0, 1]},
	"platform": {"speeds": [1, 2, 3], "bandwidth": {"uniform": 2}},
	"objective": "min-period"
}`

// TestSolveSPEndToEnd: series-parallel instances — reducible and
// irreducible — solve through /v1/solve with the right mapping shape and
// certification.
func TestSolveSPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/solve", spDiamond)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diamond status = %d, body %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solution.Feasible || !out.Solution.Exact {
		t.Errorf("diamond solution = %+v, want exact feasible", out.Solution)
	}
	if out.Solution.SPMapping == nil || out.Solution.SPMapping.Reduced != "fork-join" {
		t.Fatalf("diamond spMapping = %+v, want a fork-join reduction", out.Solution.SPMapping)
	}
	if len(out.Solution.SPMapping.ForkJoin) == 0 || len(out.Solution.SPMapping.Order) != 4 {
		t.Errorf("diamond reduction lost its embedded mapping or order: %+v", out.Solution.SPMapping)
	}
	if !strings.HasPrefix(out.Cell, "sp/") {
		t.Errorf("cell = %q, want an sp cell", out.Cell)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", spChorded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chorded status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solution.Feasible || !out.Solution.Exact || out.Solution.Method != "exhaustive" {
		t.Errorf("chorded solution = %+v, want exact exhaustive", out.Solution)
	}
	if out.Solution.SPMapping == nil || out.Solution.SPMapping.Reduced != "sp" || len(out.Solution.SPMapping.Blocks) == 0 {
		t.Fatalf("chorded spMapping = %+v, want direct sp blocks", out.Solution.SPMapping)
	}
}

// TestSolveSPAnytimeGap: an oversized irreducible DAG under a budget
// returns a certified anytime incumbent with a non-negative gap.
func TestSolveSPAnytimeGap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.TrimSuffix(strings.TrimSpace(spOversized), "}") + `, "budgetMs": 80}`
	resp, raw := postJSON(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var out SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solution.Feasible || !out.Solution.Anytime {
		t.Fatalf("solution = %+v, want a feasible anytime incumbent", out.Solution)
	}
	if out.Solution.Gap == nil || *out.Solution.Gap < 0 {
		t.Errorf("gap = %v, want certified non-negative", out.Solution.Gap)
	}
	if out.Solution.SPMapping == nil {
		t.Error("anytime solution lost its sp mapping")
	}
}

// TestParetoSP: the Pareto sweep works on a series-parallel instance.
func TestParetoSP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pareto", spChorded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	fronts, statuses := splitStream(t, body)
	if len(fronts) == 0 {
		t.Fatalf("empty front, body %s", body)
	}
	for _, f := range fronts {
		if f.SPMapping == nil {
			t.Errorf("front point without sp mapping: %+v", f)
		}
	}
	if len(statuses) != 1 || statuses[0].Status != StreamStatusComplete {
		t.Fatalf("statuses = %+v, want one terminal complete line", statuses)
	}
}

// TestJobsSP: a series-parallel instance solves through the async job
// surface.
func TestJobsSP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, spDiamond))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusDone {
		t.Fatalf("job finished %q (%+v), want done", done.Status, done.Error)
	}
	if done.Solution == nil || !done.Solution.Exact || done.Solution.SPMapping == nil {
		t.Fatalf("solution = %+v, want an exact sp solution", done.Solution)
	}
}

// TestParetoComm: the Pareto sweep works on a heterogeneous
// communication-aware pipeline — the wire path of the engine's
// sweep-scoped prepared pool, which the comm kind joins through its
// cells' Prepare capability. Every front point must carry a comm mapping.
func TestParetoComm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pareto", commPipelineHet)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	fronts, statuses := splitStream(t, body)
	if len(fronts) == 0 {
		t.Fatalf("empty front, body %s", body)
	}
	for _, f := range fronts {
		if len(f.CommPipelineMapping) == 0 {
			t.Errorf("front point without comm mapping: %+v", f)
		}
	}
	if len(statuses) != 1 || statuses[0].Status != StreamStatusComplete {
		t.Fatalf("statuses = %+v, want one terminal complete line", statuses)
	}
}

// TestSolveSPCommParallelismIdentity: an explicit parallelism request on
// the SP and comm kinds answers byte-identically to the serial path —
// the wire-level face of the determinism contract.
func TestSolveSPCommParallelismIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, inst string
	}{
		{"sp", spChorded},
		{"comm-pipeline", commPipelineHet},
		{"comm-fork", commForkSmall},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", tc.inst)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s serial status = %d, body %s", tc.name, resp.StatusCode, body)
		}
		var serial SolveResponse
		if err := json.Unmarshal(body, &serial); err != nil {
			t.Fatal(err)
		}
		par := strings.TrimSuffix(strings.TrimSpace(tc.inst), "}") + `, "parallelism": 4}`
		resp, body = postJSON(t, ts.URL+"/v1/solve", par)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s parallel status = %d, body %s", tc.name, resp.StatusCode, body)
		}
		var parallel SolveResponse
		if err := json.Unmarshal(body, &parallel); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Solution, parallel.Solution) {
			t.Errorf("%s: parallel solution diverges from serial:\n par %+v\n ser %+v",
				tc.name, parallel.Solution, serial.Solution)
		}
	}
}

// TestSolveCommEndToEnd: the communication-aware kinds solve through
// /v1/solve, and a comm instance without bandwidth is a 400.
func TestSolveCommEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/solve", commPipelineHom)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comm pipeline status = %d, body %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solution.Feasible || !out.Solution.Exact || len(out.Solution.CommPipelineMapping) == 0 {
		t.Errorf("comm pipeline solution = %+v, want exact with a comm mapping", out.Solution)
	}
	if !strings.HasPrefix(out.Cell, "comm-pipeline/") {
		t.Errorf("cell = %q, want a comm-pipeline cell", out.Cell)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", commForkSmall)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comm fork status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solution.Feasible || !out.Solution.Exact || out.Solution.CommForkMapping == nil {
		t.Errorf("comm fork solution = %+v, want exact with a fork mapping", out.Solution)
	}

	// Bandwidth is required: the instance validates as a 400, not a 500.
	noBandwidth := `{
		"commPipeline": {"weights": [3, 1, 2], "data": [1, 2, 1, 1]},
		"platform": {"speeds": [1, 1]},
		"objective": "min-period"
	}`
	resp, body = postJSON(t, ts.URL+"/v1/solve", noBandwidth)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing bandwidth: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestClassifyNewKinds: /v1/classify resolves the registered kinds by
// wire name, rejects unknown kinds and impossible axes with 400, and
// /v1/table lists every cell of every registered kind.
func TestClassifyNewKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := getJSON(t, ts.URL+"/v1/classify?kind=sp")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sp status = %d, body %s", resp.StatusCode, body)
	}
	var info CellInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Complexity != "np-hard" || info.Source != "SP decomposition" {
		t.Errorf("sp cell = %+v, want np-hard / SP decomposition", info)
	}

	resp, body = getJSON(t, ts.URL+"/v1/classify?kind=comm-pipeline&platform=hom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comm-pipeline status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Complexity == "np-hard" || !strings.Contains(info.Source, "Section 3.2") {
		t.Errorf("hom comm-pipeline cell = %+v, want polynomial Section 3.2", info)
	}

	// Unknown kind and impossible axis are structured 400s.
	for _, q := range []string{"kind=gantt", "kind=sp&dp=true", "kind=comm-fork&dp=true"} {
		resp, body = getJSON(t, ts.URL+"/v1/classify?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", q, resp.StatusCode, body)
			continue
		}
		var eb struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != ErrKindInvalidRequest {
			t.Errorf("%s: error body %s (err %v)", q, body, err)
		}
	}

	// The table covers all registered kinds.
	resp, body = getJSON(t, ts.URL+"/v1/table")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table status = %d", resp.StatusCode)
	}
	var table TableResponse
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatal(err)
	}
	if want := len(core.AllCellKeys()); len(table.Cells) != want {
		t.Errorf("table has %d cells, want %d", len(table.Cells), want)
	}
	kinds := map[string]bool{}
	for _, c := range table.Cells {
		kinds[c.Kind] = true
	}
	for _, want := range []string{"pipeline", "fork", "fork-join", "sp", "comm-pipeline", "comm-fork"} {
		if !kinds[want] {
			t.Errorf("table missing kind %q (have %v)", want, kinds)
		}
	}
}
