package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repliflow/internal/store"
)

// panicInstance passes validation, since its weights and speeds are
// positive, yet makes a solver panic: numeric.Eq's absolute tolerance on
// magnitudes below 1 calls its three weights equal, so the dispatcher
// sends it to Theorem 7's homogeneous-pipeline solver, which finds no
// feasible candidate period and panics.
const panicInstance = `{"pipeline":{"weights":[4.656612873077393e-10,1.3969838619232178e-09,4.656612873077393e-10]},"platform":{"speeds":[2,3]},"objective":"min-period"}`

// postWithin POSTs body and fails the test unless the response arrives
// within limit: before solver panics were contained, a repeat of a
// panicking instance hung on its leaked single-flight entry.
func postWithin(t *testing.T, client *http.Client, url, body string, limit time.Duration) (int, []byte) {
	t.Helper()
	start := time.Now()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > limit {
		t.Fatalf("POST %s answered in %v, want within %v", url, d, limit)
	}
	return resp.StatusCode, b
}

// wantInternal fails unless a response is a structured internal error,
// and returns its body.
func wantInternal(t *testing.T, what string, code int, body []byte) ErrorBody {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("%s: status %d, body %q is not an error response: %v", what, code, body, err)
	}
	if code != http.StatusInternalServerError || er.Error.Kind != ErrKindInternal || !strings.Contains(er.Error.Message, "solver panic") {
		t.Fatalf("%s: status %d, error %+v; want 500 with kind %q", what, code, er.Error, ErrKindInternal)
	}
	return er.Error
}

// TestSolverPanicCostsOneRequest: a solver panic fails its own request
// with a structured internal error and costs nothing else. The same
// instance sent again fails the same way, promptly: the failed flight is
// neither cached nor left open. After three panics on a 2-worker server
// an unrelated solve still gets a solve slot, and a batch holding the
// instance fails with the same error while the process stays up.
// /metrics counts the four recovered panics against the instance's cell
// and no other.
func TestSolverPanicCostsOneRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	client := &http.Client{Timeout: 30 * time.Second}
	var cell string
	for i := 0; i < 3; i++ {
		code, body := postWithin(t, client, ts.URL+"/v1/solve", panicInstance, 5*time.Second)
		cell = wantInternal(t, fmt.Sprintf("solve %d", i+1), code, body).Cell
	}
	if code, body := postWithin(t, client, ts.URL+"/v1/solve", section2, 5*time.Second); code != http.StatusOK {
		t.Fatalf("unrelated solve after three panics: status %d, body %s", code, body)
	}
	batch := fmt.Sprintf(`{"instances": [%s, %s]}`, section2, panicInstance)
	code, body := postWithin(t, client, ts.URL+"/v1/solve/batch", batch, 5*time.Second)
	wantInternal(t, "batch", code, body)
	unrelated := strings.Replace(section2, "[14, 4, 2, 4]", "[14, 4, 2, 5]", 1)
	if code, body := postWithin(t, client, ts.URL+"/v1/solve", unrelated, 5*time.Second); code != http.StatusOK {
		t.Fatalf("solve after the batch: status %d, body %s", code, body)
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	var series []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "wfserve_solver_panics_total{") {
			series = append(series, line)
		}
	}
	if want := fmt.Sprintf("wfserve_solver_panics_total{cell=%q} 4", cell); cell == "" || len(series) != 1 || series[0] != want {
		t.Errorf("/metrics panic series %q, want [%q]", series, want)
	}
}

// faultyStore panics on every appended front point: a fault outside the
// engine, on a job's own goroutine.
type faultyStore struct{ store.Store }

func (faultyStore) AppendFrontPoint(string, json.RawMessage) error { panic("store fault") }

// TestJobPanicFailsTheJob: a panic on a job's goroutine outside the
// engine — here in the store, as the job's first Pareto point is
// persisted — ends that job failed with kind internal and frees its
// solve slot; the process keeps serving.
func TestJobPanicFailsTheJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: faultyStore{store.Mem()}, MaxInFlight: 1})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "pareto", "instance": %s}`, section2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusFailed || done.Error == nil || done.Error.Kind != ErrKindInternal ||
		!strings.Contains(done.Error.Message, "store fault") {
		t.Fatalf("job ended %q with error %+v, want failed, kind %q, naming the panic", done.Status, done.Error, ErrKindInternal)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	if code, body := postWithin(t, client, ts.URL+"/v1/solve", section2, 5*time.Second); code != http.StatusOK {
		t.Fatalf("solve after the job's panic: status %d, body %s", code, body)
	}
}
