package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/instance"
)

// section2 is the paper's Section 2 instance: pipeline (14,4,2,4) on
// three unit-speed processors with data-parallelism.
const section2 = `{
	"pipeline": {"weights": [14, 4, 2, 4]},
	"platform": {"speeds": [1, 1, 1]},
	"allowDataParallel": true,
	"objective": "min-latency"
}`

// slowInstance solves exhaustively in seconds at 14 processors: an
// NP-hard cell (Theorem 5) within the raised exhaustive limit of
// newSlowServer. (Sized up from 12 processors when the prepared-solver
// DP got an order of magnitude faster.) Its speeds are all distinct:
// the exhaustive DP searches each set of equal-speed processors once,
// so with the 3 speeds it once had it reached 144 used-processor masks
// instead of 16,384 and solved in about 10 ms.
const slowInstance = `{
	"pipeline": {"weights": [14, 4, 2, 4, 7, 3, 9, 5, 6, 8, 2, 11, 6, 5]},
	"platform": {"speeds": [20, 21, 10, 11, 30, 12, 22, 13, 14, 23, 31, 15, 24, 16]},
	"allowDataParallel": true,
	"objective": "min-latency"
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close) // drain any async jobs the test left running
	return s, ts
}

// newSlowServer raises the pipeline exhaustive limit so slowInstance
// solves exhaustively (and slowly) instead of falling back to a fast
// heuristic.
func newSlowServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Options = core.Options{MaxExhaustivePipelineProcs: 14}
	return newTestServer(t, cfg)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestSolveSection2(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", section2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Solution.Latency != 17 || !out.Solution.Exact || !out.Solution.Feasible {
		t.Errorf("solution = %+v, want exact feasible latency 17", out.Solution)
	}
	if out.Solution.Method != "dynamic-programming" || out.Solution.Source != "Theorem 3" {
		t.Errorf("provenance = %s / %s, want dynamic-programming / Theorem 3", out.Solution.Method, out.Solution.Source)
	}
	if !strings.Contains(out.Cell, "pipeline/hom-platform") {
		t.Errorf("cell = %q", out.Cell)
	}
	if len(out.Solution.PipelineMapping) == 0 {
		t.Error("missing pipeline mapping")
	}
}

func TestSolveMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"syntax error", `{"pipeline": `},
		{"unknown field", `{"pipleine": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "min-period"}`},
		{"no graph", `{"platform": {"speeds": [1]}, "objective": "min-period"}`},
		{"two graphs", `{"pipeline": {"weights": [1]}, "fork": {"root": 1, "weights": [1]}, "platform": {"speeds": [1]}, "objective": "min-period"}`},
		{"bad objective", `{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "fastest"}`},
		{"negative weight", `{"pipeline": {"weights": [-1]}, "platform": {"speeds": [1]}, "objective": "min-period"}`},
		{"no processors", `{"pipeline": {"weights": [1]}, "platform": {"speeds": []}, "objective": "min-period"}`},
		{"bounded without bound", `{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "latency-under-period"}`},
		{"stray bound", `{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "min-period", "bound": 5}`},
		{"trailing JSON", `{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "min-period"} {"x": 1}`},
		{"trailing garbage", `{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "min-period"} %%%`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/solve", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("non-JSON error body %s: %v", body, err)
			}
			if er.Error.Kind != ErrKindInvalidRequest {
				t.Errorf("kind = %q, want %q", er.Error.Kind, ErrKindInvalidRequest)
			}
			if er.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	cases := []string{
		// Oversized document.
		`{"pipeline": {"weights": [` + strings.Repeat("1,", 2048) + `1]}, "platform": {"speeds": [1]}, "objective": "min-period"}`,
		// Valid document followed by oversized junk: the size limit must
		// win over the trailing-data classification.
		section2 + strings.Repeat(" ", 2048) + "junk",
	}
	for i, body := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("case %d: status = %d, body %s", i, resp.StatusCode, b)
		}
		var er ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil {
			t.Fatal(err)
		}
		if er.Error.Kind != ErrKindBodyTooLarge {
			t.Errorf("case %d: kind = %q, want %q", i, er.Error.Kind, ErrKindBodyTooLarge)
		}
	}
}

func TestSolveDeadlineExceededOnNPHardCell(t *testing.T) {
	_, ts := newSlowServer(t, Config{})
	req := strings.TrimSuffix(strings.TrimSpace(slowInstance), "}") + `, "timeoutMs": 25}`
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	// The solve takes seconds uncancelled; the deadline must cut it off
	// promptly (generous slack for loaded CI machines).
	if elapsed > 2*time.Second {
		t.Errorf("request returned after %v, want prompt cancellation", elapsed)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != ErrKindDeadlineExceeded {
		t.Errorf("kind = %q, want %q", er.Error.Kind, ErrKindDeadlineExceeded)
	}
	if er.Error.Complexity != "np-hard" || er.Error.Source != "Theorem 5" {
		t.Errorf("classification = %s / %s, want np-hard / Theorem 5", er.Error.Complexity, er.Error.Source)
	}
	if er.Error.Cell == "" {
		t.Error("missing cell in structured error")
	}
}

func TestBatchDedupSecondRequestHitsCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	batch := fmt.Sprintf(`{"instances": [%s, %s]}`, section2, section2)
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Solutions) != 2 {
		t.Fatalf("got %d solutions, want 2", len(out.Solutions))
	}
	if out.Solutions[0].Latency != 17 || out.Solutions[1].Latency != 17 {
		t.Errorf("latencies = %g, %g, want 17, 17", out.Solutions[0].Latency, out.Solutions[1].Latency)
	}
	// The duplicate within the batch coalesces onto one computation.
	if out.Cache.RequestMisses != 1 || out.Cache.RequestHits != 1 {
		t.Errorf("request cache = %d hits / %d misses, want 1 / 1",
			out.Cache.RequestHits, out.Cache.RequestMisses)
	}
	// A second identical batch is answered fully from the cache.
	resp, body = postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache.RequestMisses != 0 || out.Cache.RequestHits != 2 {
		t.Errorf("second batch cache = %d hits / %d misses, want 2 / 0",
			out.Cache.RequestHits, out.Cache.RequestMisses)
	}
	if hits, _ := srv.Engine().CacheStats(); hits < 3 {
		t.Errorf("engine hits = %d, want >= 3", hits)
	}
}

// splitStream partitions the NDJSON lines of a /v1/pareto body into
// solution documents and status lines. Status lines are recognized by
// their "status" field — the discriminator the wire format guarantees;
// solution lines must strictly decode as SolutionJSON.
func splitStream(t *testing.T, body []byte) (sols []instance.SolutionJSON, statuses []StreamStatus) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Status *string `json:"status"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Status != nil {
			var st StreamStatus
			if err := json.Unmarshal(line, &st); err != nil {
				t.Fatalf("bad status line %q: %v", sc.Text(), err)
			}
			statuses = append(statuses, st)
			continue
		}
		var sol instance.SolutionJSON
		if err := instance.DecodeStrict(bytes.NewReader(line), &sol); err != nil {
			t.Fatalf("line does not strictly decode as SolutionJSON: %v (%s)", err, sc.Text())
		}
		sols = append(sols, sol)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sols, statuses
}

func TestParetoStreamsNDJSON(t *testing.T) {
	// Objective omitted on purpose: the sweep ignores it.
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/pareto", `{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	fronts, statuses := splitStream(t, body)
	if len(fronts) != 2 || fronts[0].Period != 8 || fronts[0].Latency != 24 ||
		fronts[1].Period != 10 || fronts[1].Latency != 17 {
		t.Errorf("front = %+v, want (8,24), (10,17)", fronts)
	}
	if len(statuses) != 1 || statuses[0].Status != StreamStatusComplete {
		t.Fatalf("statuses = %+v, want one terminal complete line", statuses)
	}
	term := statuses[0]
	// A walked sweep: one unit per step, each finding one point.
	if term.Points != 2 || term.Unexplored != 0 || term.Explored != 2 || term.TotalCandidates != 2 {
		t.Errorf("terminal line = %+v, want 2 points, 2 of 2 walk steps explored", term)
	}
	// The terminal line is the last line of the stream.
	trimmed := bytes.TrimSpace(body)
	last := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	if !bytes.Contains(last, []byte(`"status"`)) {
		t.Errorf("stream does not end with the terminal status line: %s", last)
	}
}

func TestClassifyAndTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/v1/classify?kind=pipeline&platform=hom&dp=true&objective=min-latency")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var info CellInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Complexity != "poly-dp" || info.Source != "Theorem 3" || info.Method != "dynamic-programming" || !info.Exact {
		t.Errorf("cell info = %+v, want poly-dp / Theorem 3 / dynamic-programming / exact", info)
	}

	resp, body = getJSON(t, ts.URL+"/v1/classify?kind=gantt")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind: status = %d, body %s", resp.StatusCode, body)
	}

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
	for _, c := range table.Cells {
		if c.Complexity == "" || c.Source == "" || c.Method == "" {
			t.Errorf("incomplete cell info %+v", c)
		}
	}
}

func TestOverloadedReturns503(t *testing.T) {
	_, ts := newSlowServer(t, Config{MaxInFlight: 1})
	slow := strings.TrimSuffix(strings.TrimSpace(slowInstance), "}") + `, "timeoutMs": 2000}`
	fast := strings.TrimSuffix(strings.TrimSpace(section2), "}") + `, "timeoutMs": 100}`

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		// Occupies the only slot; errors are fine, the request just has
		// to hold the limiter while the fast request queues.
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(slow))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the slow solve claim the slot

	resp, body := postJSON(t, ts.URL+"/v1/solve", fast)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != ErrKindOverloaded {
		t.Errorf("kind = %q, want %q", er.Error.Kind, ErrKindOverloaded)
	}
	<-done
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: status %d, body %s", resp.StatusCode, body)
	}

	// Generate traffic so the counters are non-trivial.
	postJSON(t, ts.URL+"/v1/solve", section2)
	postJSON(t, ts.URL+"/v1/solve", section2)

	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`wfserve_requests_total{endpoint="/v1/solve",code="200"} 2`,
		"wfserve_cache_hits_total 1",
		"wfserve_cache_misses_total 1",
		"wfserve_cache_hit_ratio 0.5",
		"wfserve_solve_seconds_bucket{cell=",
		"wfserve_solve_seconds_count{cell=",
		"wfserve_inflight_requests 0",
		"wfserve_stream_points_total 0",
		"wfserve_jobs_active 0",
		"wfserve_jobs_total 0",
		"wfserve_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentMixedTraffic drives 64 concurrent mixed solve, batch and
// pareto requests; every request must succeed. Run with -race in CI.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := fmt.Sprintf(`{"instances": [%s, %s]}`, section2, section2)
	paretoBody := `{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true
	}`
	forkBody := `{
		"fork": {"root": 2, "weights": [1, 3, 2]},
		"platform": {"speeds": [1, 2]},
		"objective": "min-period"
	}`

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp *http.Response
			var err error
			switch i % 4 {
			case 0:
				resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(section2))
			case 1:
				resp, err = http.Post(ts.URL+"/v1/solve/batch", "application/json", strings.NewReader(batch))
			case 2:
				resp, err = http.Post(ts.URL+"/v1/pareto", "application/json", strings.NewReader(paretoBody))
			default:
				resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(forkBody))
			}
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d, body %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
