package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repliflow/internal/store"
)

// newDiskServer builds a server over a DiskStore in dir, returning the
// server, its test listener and the store (the caller restarts by
// closing all three and calling it again on the same dir).
func newDiskServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, *store.DiskStore) {
	t.Helper()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := New(cfg)
	ts := httptest.NewServer(s)
	return s, ts, st
}

// drain closes the server and waits for its job goroutines to persist
// their final state, then closes the listener and store — the orderly
// half of a restart (the crash half is cmd/wfserve's kill -9 test).
func drain(t *testing.T, s *Server, ts *httptest.Server, st *store.DiskStore) {
	t.Helper()
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.active() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResumesParetoJob: a pareto job interrupted by shutdown is
// re-queued in the store, and a new server over the same directory
// adopts it, re-runs it to completion, and never lets the observable
// front shrink below what the first incarnation proved. The sweep is
// the 9-step walked SP rung, whose 17 points are proven one by one, so
// the shutdown lands mid-sweep; a job already finished at the shutdown
// would only test that a restart serves a terminal job, and fails the
// test.
func TestRestartResumesParetoJob(t *testing.T) {
	dir := t.TempDir()
	rung := walkedSweepRung(9)
	cfg := Config{Options: rung.opts}
	s1, ts1, st1 := newDiskServer(t, dir, cfg)

	body := `{"kind": "pareto", "instance": ` + rung.instance + `}, "timeoutMs": 120000}`
	resp, jr := postJob(t, ts1.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status = %d", resp.StatusCode)
	}
	// Shut down as soon as the sweep has proven at least one point.
	mid := pollJob(t, ts1.URL, jr.ID, "first front point", func(j JobResponse) bool {
		return j.Progress.Points >= 1 || terminal(j)
	})
	drain(t, s1, ts1, st1)
	if terminal(mid) {
		t.Fatalf("the job was %s with %d points before the shutdown: the sweep did not run long enough to be cut mid-sweep",
			mid.Status, mid.Progress.Points)
	}

	s2, ts2, st2 := newDiskServer(t, dir, cfg)
	defer drain(t, s2, ts2, st2)
	done := pollJob(t, ts2.URL, jr.ID, "terminal after restart", terminal)
	if done.Status != JobStatusDone {
		t.Fatalf("resumed job finished %q (error %+v), want done", done.Status, done.Error)
	}
	if len(done.Front) == 0 || len(done.Front) < mid.Progress.Points {
		t.Fatalf("front shrank across restart: %d points, had %d before shutdown",
			len(done.Front), mid.Progress.Points)
	}
	// The resumed run was counted, and new ids never collide with
	// recovered ones.
	resp2, jr2 := postJob(t, ts2.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit: status = %d", resp2.StatusCode)
	}
	if jr2.ID == jr.ID {
		t.Fatalf("restarted server reissued job id %s", jr.ID)
	}
}

// TestLegacyLeaseRecordResumes: a store directory written while job
// records still carried a "lease" key opens, and its non-terminal job
// is re-run to done under its stored id.
func TestLegacyLeaseRecordResumes(t *testing.T) {
	dir := t.TempDir()
	var req bytes.Buffer
	if err := json.Compact(&req, []byte(fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"v":1,"type":"job","job":{"id":"job-77","kind":"solve","status":"running","client":"tenant-a",`+
		`"request":%s,"createdMs":1754550000000,"lease":{"owner":"wfserve-3121-1","expiresMs":1754550015000}}}`, req.String())
	if err := os.WriteFile(filepath.Join(dir, "store.ndjson"), []byte(`"wfstore/v1"`+"\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts, st := newDiskServer(t, dir, Config{})
	defer drain(t, s, ts, st)
	done := pollJob(t, ts.URL, "job-77", "resumed and finished", terminal)
	if done.Status != JobStatusDone || done.Solution == nil || done.Solution.Latency != 17 {
		t.Fatalf("resumed job = %+v, want done with the latency-17 optimum", done)
	}
	if got := s.storeRecovered.Load(); got != 1 {
		t.Errorf("recovered-jobs counter = %d, want 1", got)
	}
	// The sequence advanced past the recovered id.
	resp, jr := postJob(t, ts.URL, req.String())
	if resp.StatusCode != http.StatusAccepted || jr.ID != "job-78" {
		t.Errorf("next submission = %q (status %d), want job-78", jr.ID, resp.StatusCode)
	}
}

// TestSolveResultsSharedThroughStore: an NP-hard solve on one server
// incarnation is answered from the persisted result store by the next,
// engine cache cold.
func TestSolveResultsSharedThroughStore(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, st1 := newDiskServer(t, dir, Config{})
	resp, body := postJSON(t, ts1.URL+"/v1/solve", slowInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status = %d, body %s", resp.StatusCode, body)
	}
	var first SolveResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if s1.storeWrites.Load() == 0 {
		t.Fatal("NP-hard solve not written through to the store")
	}
	drain(t, s1, ts1, st1)

	s2, ts2, st2 := newDiskServer(t, dir, Config{})
	defer drain(t, s2, ts2, st2)
	resp, body = postJSON(t, ts2.URL+"/v1/solve", slowInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve: status = %d, body %s", resp.StatusCode, body)
	}
	if hits := s2.storeResultHits.Load(); hits != 1 {
		t.Fatalf("store result hits = %d, want 1", hits)
	}
	var second SolveResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first.Solution)
	b, _ := json.Marshal(second.Solution)
	if string(a) != string(b) {
		t.Fatalf("stored solution drifted:\nfirst  %s\nsecond %s", a, b)
	}
	// Polynomial solves bypass the store entirely.
	misses := s2.storeResultMisses.Load()
	if resp, _ := postJSON(t, ts2.URL+"/v1/solve", section2); resp.StatusCode != http.StatusOK {
		t.Fatalf("polynomial solve failed: %d", resp.StatusCode)
	}
	if got := s2.storeResultMisses.Load(); got != misses {
		t.Error("polynomial solve consulted the result store")
	}
}

// TestStoreMetricsExposed: the wfserve_store_* series appear on
// /metrics.
func TestStoreMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, name := range []string{
		"wfserve_store_jobs", "wfserve_store_results",
		"wfserve_store_writes_total", "wfserve_store_errors_total",
		"wfserve_store_result_hits_total", "wfserve_store_result_misses_total",
		"wfserve_store_recovered_jobs_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}
