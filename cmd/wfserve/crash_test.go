package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/server"
	"repliflow/internal/store"
)

// crashChildEnv carries the store directory into the re-exec'd child.
// When set, the test binary behaves as a real wfserve on that directory
// instead of running the test suite — the only way to exercise kill -9
// recovery, which cannot be simulated in-process.
const crashChildEnv = "WFSERVE_CRASH_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return
	}
	os.Exit(m.Run())
}

// crashChild runs the production run() loop over a disk store, printing
// the bound address on stdout for the parent. It exits 0 on a clean
// SIGTERM drain; a SIGKILL from the parent bypasses all of this, which
// is the point.
func crashChild(dir string) {
	st, err := store.OpenDisk(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	cfg := server.Config{
		Store: st,
		// Raised exhaustive limit: the 12-processor sweep's point solves
		// run long enough after its first point that the parent reliably
		// kills us mid-sweep.
		Options: core.Options{MaxExhaustivePipelineProcs: 12},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ready := make(chan net.Addr, 1)
	go func() {
		fmt.Printf("WFSERVE_ADDR=%s\n", <-ready)
	}()
	err = run(ctx, "127.0.0.1:0", cfg, false, "", ready)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startCrashChild re-execs this test binary as a wfserve over dir and
// waits for it to report its listen address.
func startCrashChild(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "WFSERVE_ADDR="); ok {
			go io.Copy(io.Discard, stdout) //nolint:errcheck
			return cmd, "http://" + addr
		}
	}
	cmd.Process.Kill() //nolint:errcheck
	cmd.Wait()         //nolint:errcheck
	t.Fatalf("child never reported its address (scan err %v)", sc.Err())
	return nil, ""
}

// jobView is the slice of the job wire format the crash test asserts on.
type jobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Progress struct {
		Points int `json:"points"`
	} `json:"progress"`
	Front []json.RawMessage `json:"front"`
}

func crashJobTerminal(j jobView) bool {
	return j.Status == "done" || j.Status == "failed" || j.Status == "canceled"
}

// pollCrashJob polls GET /v1/jobs/{id} until cond holds, tolerating
// transient connection errors while a child is coming up.
func pollCrashJob(t *testing.T, base, id, what string, cond func(jobView) bool) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last jobView
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET job %s: status %d, body %s", id, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &last); err != nil {
				t.Fatalf("GET job %s: bad body %s: %v", id, body, err)
			}
			if cond(last) {
				return last
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last view %+v", what, last)
	return last
}

// TestCrashRecoveryAcrossKill is the Go mirror of CI's crash-recovery
// job: submit a long pareto sweep to a durable wfserve, SIGKILL the
// process mid-sweep, restart it on the same directory, and require the
// job to resume to completion with a front at least as long as the
// partial one proven before the kill.
func TestCrashRecoveryAcrossKill(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()

	child1, base1 := startCrashChild(t, dir)
	resp, err := http.Post(base1+"/v1/jobs", "application/json", strings.NewReader(`{
		"kind": "pareto",
		"instance": {
			"pipeline": {"weights": [14, 4, 2, 4, 7, 3, 9]},
			"platform": {"speeds": [5, 4, 3, 3, 2, 2, 1, 1, 4, 2, 3, 1]},
			"allowDataParallel": true
		},
		"timeoutMs": 120000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub jobView
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}

	// Kill as soon as the sweep has proven (and persisted) at least one
	// point. On a machine fast enough to finish first, the test degrades
	// to restart-serves-terminal-job — the assertions below still hold.
	pre := pollCrashJob(t, base1, sub.ID, "first front point", func(j jobView) bool {
		return j.Progress.Points >= 1 || crashJobTerminal(j)
	})
	if err := child1.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	child1.Wait() //nolint:errcheck // expected: killed

	child2, base2 := startCrashChild(t, dir)
	defer func() {
		if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
			t.Error(err)
			return
		}
		if err := child2.Wait(); err != nil {
			t.Errorf("restarted child did not drain cleanly: %v", err)
		}
	}()

	fin := pollCrashJob(t, base2, sub.ID, "terminal after restart", crashJobTerminal)
	if fin.Status != "done" {
		t.Fatalf("resumed job finished %q, want done", fin.Status)
	}
	if len(fin.Front) == 0 || len(fin.Front) < pre.Progress.Points {
		t.Fatalf("front shrank across the kill: %d points, had %d before",
			len(fin.Front), pre.Progress.Points)
	}
	for i, raw := range fin.Front {
		if !json.Valid(raw) {
			t.Fatalf("front point %d is not valid JSON: %s", i, raw)
		}
	}
}
