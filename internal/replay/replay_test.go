package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/server"
)

// -update-seed-trace regenerates testdata/seed_trace.ndjson by running
// the traffic driver against a recording backend:
//
//	go test ./internal/replay/ -run TestReplaySeedTrace -update-seed-trace
var updateSeedTrace = flag.Bool("update-seed-trace", false,
	"regenerate testdata/seed_trace.ndjson from the traffic driver")

const seedTracePath = "testdata/seed_trace.ndjson"

// seedConfig pins the backend configuration for both recording the seed
// trace and replaying it in CI. One worker serializes the engine, so
// stream point order, explored counts and job progression are
// reproducible; admission stays off so the trace carries no
// clock-dependent 429s.
func seedConfig() server.Config {
	return server.Config{
		Workers:        1,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		MaxBatch:       16,
		Options:        core.Options{MaxExhaustivePipelineProcs: 12},
	}
}

// driveTraffic issues the mixed workload the seed trace is built from:
// exact solves (polynomial and NP-hard cells), a budgeted anytime solve,
// a deduplicating batch, a streamed Pareto sweep with its terminal
// status line, async job submission polled to terminal state, metadata
// endpoints and deterministic error paths — each under a client id.
func driveTraffic(t testing.TB, base string) {
	t.Helper()
	do := func(method, path, client, body string) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if client != "" {
			req.Header.Set(server.ClientIDHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	do(http.MethodGet, "/healthz", "", "")
	do(http.MethodGet, "/v1/classify?kind=pipeline&platform=hom&dp=true&objective=min-latency", "", "")
	do(http.MethodGet, "/v1/table", "", "")

	// Exact polynomial solve (the paper's Section 2 instance).
	if code, body := do(http.MethodPost, "/v1/solve", "alice", `{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true,
		"objective": "min-latency"
	}`); code != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", code, body)
	}

	// Deterministic error path.
	if code, _ := do(http.MethodPost, "/v1/solve", "alice",
		`{"pipeline": {"weights": [1]}, "platform": {"speeds": [1]}, "objective": "fastest"}`); code != http.StatusBadRequest {
		t.Fatalf("bad objective: status %d, want 400", code)
	}

	// Budgeted anytime solve on an NP-hard cell. The instance is small
	// enough that the search exhausts well within the budget on any
	// machine, so the recorded incumbent is the optimum and a replayed
	// gap can only tie it.
	if code, body := do(http.MethodPost, "/v1/solve", "alice", `{
		"pipeline": {"weights": [9, 4, 2, 4, 7, 3, 5, 6, 8, 2]},
		"platform": {"speeds": [2, 2, 1, 1, 3, 1, 2, 1, 1, 2]},
		"allowDataParallel": true,
		"objective": "min-latency",
		"budgetMs": 10000
	}`); code != http.StatusOK {
		t.Fatalf("anytime solve: status %d, body %s", code, body)
	}

	// Batch with an in-request duplicate (coalesces in the engine).
	if code, body := do(http.MethodPost, "/v1/solve/batch", "bob", `{"instances": [
		{"pipeline": {"weights": [14, 4, 2, 4]}, "platform": {"speeds": [1, 1, 1]}, "allowDataParallel": true, "objective": "min-latency"},
		{"pipeline": {"weights": [5, 3]}, "platform": {"speeds": [1, 1]}, "objective": "min-period"},
		{"pipeline": {"weights": [14, 4, 2, 4]}, "platform": {"speeds": [1, 1, 1]}, "allowDataParallel": true, "objective": "min-latency"}
	]}`); code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", code, body)
	}

	// Streamed Pareto sweep, exact: point lines and the terminal
	// "complete" status line must replay identically.
	if code, body := do(http.MethodPost, "/v1/pareto", "bob", `{
		"pipeline": {"weights": [6, 3, 2]},
		"platform": {"speeds": [2, 1]},
		"allowDataParallel": true
	}`); code != http.StatusOK {
		t.Fatalf("pareto: status %d, body %s", code, body)
	} else if !strings.Contains(body, `"status"`) {
		t.Fatalf("pareto stream missing a terminal status line: %s", body)
	}

	// Async job: submit, poll to terminal, list.
	code, body := do(http.MethodPost, "/v1/jobs", "carol", `{
		"kind": "solve",
		"instance": {
			"pipeline": {"weights": [8, 3, 2, 5]},
			"platform": {"speeds": [2, 1, 1]},
			"allowDataParallel": true,
			"objective": "min-latency"
		}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("job create: status %d, body %s", code, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil || created.ID == "" {
		t.Fatalf("job create response %q: %v", body, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body = do(http.MethodGet, "/v1/jobs/"+created.ID, "carol", "")
		if code != http.StatusOK {
			t.Fatalf("job poll: status %d, body %s", code, body)
		}
		if jobTerminal(body) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", created.ID, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	do(http.MethodGet, "/v1/jobs", "carol", "")
	if code, _ := do(http.MethodGet, "/v1/jobs/nope", "carol", ""); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}
}

// recordTrace runs driveTraffic against a recording backend and returns
// the decoded trace.
func recordTrace(t testing.TB) *Trace {
	t.Helper()
	srv := server.New(seedConfig())
	var buf bytes.Buffer
	rec := NewRecorder(srv, &buf)
	ts := httptest.NewServer(rec)
	driveTraffic(t, ts.URL)
	ts.Close()
	srv.Close()
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder: %v", err)
	}
	tr, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding the recording: %v", err)
	}
	return tr
}

// replayAgainstFresh replays tr against a brand-new backend with the
// seed configuration — the differential-regression check.
func replayAgainstFresh(t testing.TB, tr *Trace) *Stats {
	t.Helper()
	srv := server.New(seedConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := Replay(ctx, tr, ts.URL, Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return stats
}

func assertClean(t *testing.T, tr *Trace, stats *Stats) {
	t.Helper()
	if stats.Events != len(tr.Events) {
		t.Errorf("replayed %d of %d events", stats.Events, len(tr.Events))
	}
	for _, d := range stats.Diffs {
		t.Errorf("event %d %s field %q: recorded %s, replayed %s",
			d.Seq, d.Path, d.Field, d.Recorded, d.Replayed)
	}
	if stats.Mismatches != 0 {
		t.Errorf("%d events diverged", stats.Mismatches)
	}
	if stats.RateLimitDivergences != 0 {
		t.Errorf("%d rate-limit divergences with admission off", stats.RateLimitDivergences)
	}
}

// TestRecordReplayRoundTrip records the mixed workload and immediately
// replays it against a fresh backend: every response must match the
// recording field-by-field (exact cells byte-identical modulo the
// documented volatile fields, anytime gap-bounded), including the
// streamed terminal status lines.
func TestRecordReplayRoundTrip(t *testing.T) {
	tr := recordTrace(t)
	if len(tr.Events) < 10 {
		t.Fatalf("recorded only %d events", len(tr.Events))
	}
	// The recording must carry the workload mix, tenant identities and
	// the stream's terminal status line.
	var sawStream, sawJob bool
	clients := map[string]bool{}
	for _, ev := range tr.Events {
		clients[ev.Client] = true
		if strings.HasPrefix(ev.Path, "/v1/pareto") && strings.Contains(ev.Response, `"complete"`) {
			sawStream = true
		}
		if strings.HasPrefix(ev.Path, "/v1/jobs") {
			sawJob = true
		}
	}
	if !sawStream {
		t.Error("no completed pareto stream in the recording")
	}
	if !sawJob {
		t.Error("no job traffic in the recording")
	}
	for _, c := range []string{"alice", "bob", "carol"} {
		if !clients[c] {
			t.Errorf("client %q missing from the recording", c)
		}
	}

	assertClean(t, tr, replayAgainstFresh(t, tr))
}

// TestReplaySeedTrace is the tier-1 macro test: the checked-in seed
// trace must replay cleanly against the current build. A diff here means
// the wire format or a solver changed observable behaviour — either fix
// the regression or, for an intentional change, regenerate the trace
// with -update-seed-trace and review the diff of the trace file itself.
func TestReplaySeedTrace(t *testing.T) {
	if *updateSeedTrace {
		srv := server.New(seedConfig())
		f, err := os.Create(seedTracePath)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(srv, f)
		ts := httptest.NewServer(rec)
		driveTraffic(t, ts.URL)
		ts.Close()
		srv.Close()
		if err := rec.Err(); err != nil {
			t.Fatalf("recorder: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", seedTracePath)
	}

	f, err := os.Open(filepath.FromSlash(seedTracePath))
	if err != nil {
		t.Fatalf("opening the seed trace (regenerate with -update-seed-trace): %v", err)
	}
	tr, err := DecodeTrace(f)
	f.Close() //nolint:errcheck
	if err != nil {
		t.Fatalf("decoding the seed trace: %v", err)
	}
	assertClean(t, tr, replayAgainstFresh(t, tr))
}

// BenchmarkReplaySeedTrace measures end-to-end replay throughput of the
// seed trace against an in-process backend — the number benchgate
// watches so the harness itself cannot quietly regress.
func BenchmarkReplaySeedTrace(b *testing.B) {
	f, err := os.Open(filepath.FromSlash(seedTracePath))
	if err != nil {
		b.Skipf("no seed trace: %v", err)
	}
	tr, err := DecodeTrace(f)
	f.Close() //nolint:errcheck
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(seedConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	polls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Replay(context.Background(), tr, ts.URL, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Events != len(tr.Events) {
			b.Fatalf("replayed %d of %d events", stats.Events, len(tr.Events))
		}
		polls += stats.JobPolls
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
	// The job polls, and the requests and allocations they bring, depend
	// on how fast the server finishes each job, so this row is gated on
	// ns/op only (docs/performance.md).
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}
