package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/store"
)

func postJob(t *testing.T, url, body string) (*http.Response, JobResponse) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/jobs", body)
	var jr JobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatalf("bad job response %s: %v", raw, err)
		}
		if jr.ID == "" {
			t.Fatalf("accepted job without an id: %s", raw)
		}
		if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+jr.ID {
			t.Errorf("Location = %q, want /v1/jobs/%s", loc, jr.ID)
		}
	}
	return resp, jr
}

func deleteJob(t *testing.T, url, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// pollJob polls GET /v1/jobs/{id} until the predicate holds.
func pollJob(t *testing.T, url, id string, what string, until func(JobResponse) bool) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, raw := getJSON(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d, body %s", id, resp.StatusCode, raw)
		}
		var jr JobResponse
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		if until(jr) {
			return jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached: %s", id, what)
	return JobResponse{}
}

func terminal(jr JobResponse) bool {
	return jr.Status == JobStatusDone || jr.Status == JobStatusFailed || jr.Status == JobStatusCanceled
}

// TestJobSolveLifecycle: submit, observe, harvest and discard a solve
// job end to end.
func TestJobSolveLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusDone {
		t.Fatalf("job finished %q (%+v), want done", done.Status, done.Error)
	}
	if done.Solution == nil || done.Solution.Latency != 17 || !done.Solution.Exact {
		t.Fatalf("solution = %+v, want the exact latency-17 optimum", done.Solution)
	}
	if done.Progress.Done != 1 || done.Progress.Total != 1 {
		t.Errorf("progress = %+v, want 1/1", done.Progress)
	}

	// The job shows up in the listing.
	resp, raw := getJSON(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list JobListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == jr.ID
	}
	if !found {
		t.Errorf("job %s missing from the listing %+v", jr.ID, list.Jobs)
	}

	// DELETE discards a finished job; a second GET is a 404.
	if resp, body := deleteJob(t, ts.URL, jr.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+jr.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job still answers: status %d", resp.StatusCode)
	}
}

// TestJobBatch: a batch job returns index-aligned solutions.
func TestJobBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "batch", "instances": [%s, %s]}`, section2, section2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusDone || len(done.Solutions) != 2 {
		t.Fatalf("batch job = %q with %d solutions, want done with 2", done.Status, len(done.Solutions))
	}
	if done.Solutions[0].Latency != 17 || done.Solutions[1].Latency != 17 {
		t.Errorf("latencies = %g, %g, want 17, 17", done.Solutions[0].Latency, done.Solutions[1].Latency)
	}
}

// TestJobParetoDeliversFront: a pareto job reports live sweep progress
// and ends with the full front.
func TestJobParetoDeliversFront(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: core.Options{MaxExhaustivePipelineProcs: 10}})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "pareto", "instance": %s}}`,
		strings.TrimSpace(exactSweepInstance)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusDone {
		t.Fatalf("pareto job finished %q (%+v), want done", done.Status, done.Error)
	}
	if len(done.Front) < 2 {
		t.Fatalf("front has %d points, want >= 2", len(done.Front))
	}
	prev := -1.0
	for i, p := range done.Front {
		if !p.Feasible || p.Period < prev {
			t.Errorf("front point %d out of order: %+v", i, p)
		}
		prev = p.Period
	}
	if done.Progress.Done != done.Progress.Total || done.Progress.Points != len(done.Front) {
		t.Errorf("progress = %+v for a done job with %d points", done.Progress, len(done.Front))
	}
}

// TestJobCancel: DELETE on a live job cancels it; the job records the
// cancellation and any pareto points proven before it stand.
func TestJobCancel(t *testing.T) {
	_, ts := newSlowServer(t, Config{})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "pareto", "instance": %s, "timeoutMs": 60000}`, slowInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	pollJob(t, ts.URL, jr.ID, "running", func(j JobResponse) bool { return j.Status == JobStatusRunning })
	if resp, body := deleteJob(t, ts.URL, jr.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("delete status = %d, body %s", resp.StatusCode, body)
	}
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusCanceled {
		t.Fatalf("cancelled job finished %q, want canceled", done.Status)
	}
	if done.Error == nil || done.Error.Kind != ErrKindCanceled {
		t.Errorf("error = %+v, want kind %q", done.Error, ErrKindCanceled)
	}
}

// TestJobStoreBounded: at most MaxJobs jobs are live at once — a
// submission beyond that is rejected — and a finished job frees its
// slot while its record stays readable.
func TestJobStoreBounded(t *testing.T) {
	_, ts := newSlowServer(t, Config{MaxJobs: 2, MaxInFlight: 4})
	slow := fmt.Sprintf(`{"kind": "solve", "instance": %s, "timeoutMs": 60000}`, slowInstance)
	var ids []string
	for i := 0; i < 2; i++ {
		resp, jr := postJob(t, ts.URL, slow)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status = %d", i, resp.StatusCode)
		}
		ids = append(ids, jr.ID)
	}
	// Third submission: MaxJobs jobs are live.
	resp, _ := postJob(t, ts.URL, slow)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission: status = %d, want 503", resp.StatusCode)
	}
	// Cancel one; once it is terminal its slot is free.
	deleteJob(t, ts.URL, ids[0])
	pollJob(t, ts.URL, ids[0], "terminal", terminal)
	resp, _ = postJob(t, ts.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submission: status = %d, want 202", resp.StatusCode)
	}
	// The finished job's stored record still answers GET.
	resp, raw := getJSON(t, ts.URL+"/v1/jobs/"+ids[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finished job: status = %d, want 200, body %s", resp.StatusCode, raw)
	}
	var finished JobResponse
	if err := json.Unmarshal(raw, &finished); err != nil {
		t.Fatal(err)
	}
	if finished.ID != ids[0] || finished.Status != JobStatusCanceled {
		t.Errorf("finished job = %+v, want id %s status canceled", finished, ids[0])
	}
	// An explicit DELETE discards the record for good; only then does
	// GET 404.
	deleteJob(t, ts.URL, ids[0])
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job still answers GET")
	}
	deleteJob(t, ts.URL, ids[1]) // unblock the remaining slow job
}

// TestJobViewsAgree walks submit, cancel, finish, GET, DELETE and list
// interleavings and checks that the views of a job agree: an id is
// listed ⇔ GET answers 200 ⇔ DELETE does not answer 404. The server
// starts over a store holding two queued jobs with MaxJobs 1, so
// recovery must re-run both, whatever the bound.
func TestJobViewsAgree(t *testing.T) {
	st := store.Mem()
	slow := fmt.Sprintf(`{"kind": "solve", "instance": %s, "timeoutMs": 60000}`, slowInstance)
	for _, id := range []string{"job-1", "job-2"} {
		if err := st.PutJob(store.JobRecord{
			ID: id, Kind: "solve", Status: JobStatusQueued,
			Request: json.RawMessage(slow), CreatedMs: time.Now().UnixMilli(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newSlowServer(t, Config{Store: st, MaxJobs: 1})
	ids := []string{"job-1", "job-2", "job-3", "job-4"}

	// agree checks list ⇔ GET for every id and returns the listed set.
	agree := func(step string) map[string]bool {
		t.Helper()
		_, raw := getJSON(t, ts.URL+"/v1/jobs")
		var list JobListResponse
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, j := range list.Jobs {
			listed[j.ID] = true
		}
		for _, id := range ids {
			resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+id)
			if got := resp.StatusCode == http.StatusOK; got != listed[id] {
				t.Errorf("%s: %s listed=%v but GET status %d", step, id, listed[id], resp.StatusCode)
			}
		}
		return listed
	}
	// del checks DELETE ⇔ list, returning the DELETE status.
	del := func(step, id string) int {
		t.Helper()
		listed := agree(step)
		resp, body := deleteJob(t, ts.URL, id)
		if got := resp.StatusCode != http.StatusNotFound; got != listed[id] {
			t.Errorf("%s: %s listed=%v but DELETE status %d (%s)", step, id, listed[id], resp.StatusCode, body)
		}
		return resp.StatusCode
	}

	if listed := agree("after recovery"); !listed["job-1"] || !listed["job-2"] {
		t.Fatalf("recovered jobs listed = %v, want job-1 and job-2", listed)
	}
	// Both recovered jobs are live, so MaxJobs 1 rejects a submission.
	if resp, _ := postJob(t, ts.URL, slow); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission with 2 live jobs: status %d, want 503", resp.StatusCode)
	}
	for _, id := range []string{"job-2", "job-1"} {
		if code := del("cancel "+id, id); code != http.StatusAccepted {
			t.Errorf("cancel %s: status %d, want 202", id, code)
		}
		pollJob(t, ts.URL, id, "canceled", terminal)
		agree("canceled " + id)
	}
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))
	if resp.StatusCode != http.StatusAccepted || jr.ID != "job-3" {
		t.Fatalf("submission = %q (status %d), want job-3", jr.ID, resp.StatusCode)
	}
	agree("submitted job-3")
	pollJob(t, ts.URL, "job-3", "done", terminal)
	for _, id := range []string{"job-3", "job-3", "job-1", "job-4"} {
		del("discard "+id, id)
	}
	if listed := agree("end"); len(listed) != 1 || !listed["job-2"] {
		t.Errorf("jobs left = %v, want job-2 only", listed)
	}
}

// TestJobValidation: malformed submissions are rejected up front.
func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"unknown kind", fmt.Sprintf(`{"kind": "sweep", "instance": %s}`, section2)},
		{"missing kind", fmt.Sprintf(`{"instance": %s}`, section2)},
		{"solve without instance", `{"kind": "solve"}`},
		{"batch without instances", `{"kind": "batch"}`},
		{"batch with instance", fmt.Sprintf(`{"kind": "batch", "instance": %s}`, section2)},
		{"invalid instance", `{"kind": "solve", "instance": {"pipeline": {"weights": [-1]}, "platform": {"speeds": [1]}, "objective": "min-period"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

// TestJobsDrainOnClose: Server.Close cancels live jobs, which record the
// shutdown instead of vanishing.
func TestJobsDrainOnClose(t *testing.T) {
	srv, ts := newSlowServer(t, Config{})
	resp, jr := postJob(t, ts.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s, "timeoutMs": 60000}`, slowInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	pollJob(t, ts.URL, jr.ID, "running", func(j JobResponse) bool { return j.Status == JobStatusRunning })
	srv.Close()
	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	if done.Status != JobStatusCanceled {
		t.Fatalf("job finished %q after Close, want canceled", done.Status)
	}
	if done.Error == nil || done.Error.Kind != ErrKindShuttingDown {
		t.Errorf("error = %+v, want kind %q", done.Error, ErrKindShuttingDown)
	}
}
