package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/replay"
	"repliflow/internal/server"
)

func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", server.Config{
			DefaultTimeout: 30 * time.Second,
			MaxTimeout:     time.Minute,
			MaxBatch:       16,
		}, false, "", ready)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: status %d, body %s", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/solve", "application/json", strings.NewReader(`{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true,
		"objective": "min-latency"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"latency": 17`) {
		t.Fatalf("solve: status %d, body %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}
}

// TestShutdownDuringParetoStream: graceful shutdown must let an
// in-progress NDJSON stream finish its current line and write a
// terminal status line — never truncate mid-JSON. The instance's
// sweep solves run for multiples of the shutdown window, so without
// the drain the stream would be cut off. Its speeds are distinct: the
// exhaustive DP searches each set of equal-speed processors once, and on
// 3 speeds the whole sweep took milliseconds.
func TestShutdownDuringParetoStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", server.Config{
			// Raised exhaustive limit: each solve of the sweep below runs
			// for seconds, far beyond the shutdown window.
			Options: core.Options{MaxExhaustivePipelineProcs: 12},
			// Fast heartbeats commit the stream before the first point.
			StreamHeartbeat: 40 * time.Millisecond,
		}, false, "", ready)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Post("http://"+addr.String()+"/v1/pareto", "application/json", strings.NewReader(`{
		"pipeline": {"weights": [14, 4, 2, 4, 7, 3, 9, 5, 6, 8, 2, 11]},
		"platform": {"speeds": [20, 21, 10, 11, 30, 12, 22, 13, 14, 23, 31, 15]},
		"allowDataParallel": true,
		"timeoutMs": 120000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the first stream line: %v", err)
	}
	if !json.Valid([]byte(first)) {
		t.Fatalf("first line is not JSON: %q", first)
	}

	// SIGTERM equivalent while the stream is mid-sweep.
	cancel()

	var last string
	lines := []string{first}
	for {
		line, err := reader.ReadString('\n')
		if line != "" {
			lines = append(lines, line)
		}
		if err != nil {
			if err != io.EOF {
				t.Fatalf("stream error after shutdown: %v", err)
			}
			break
		}
	}
	for i, line := range lines {
		if !json.Valid([]byte(strings.TrimSpace(line))) {
			t.Fatalf("line %d truncated mid-JSON after shutdown: %q", i, line)
		}
		last = line
	}
	var term struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(last), &term); err != nil || term.Status == "" {
		t.Fatalf("stream did not end with a terminal status line: %q (%v)", last, err)
	}
	if term.Status != "shutting-down" {
		t.Errorf("terminal status = %q, want shutting-down", term.Status)
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("server did not shut down while a stream was open")
	}
}

// TestPprofOptIn: the /debug/pprof/ endpoints exist only under -pprof,
// and the solve API keeps working alongside them.
func TestPprofOptIn(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan net.Addr, 1)
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, "127.0.0.1:0", server.Config{
				DefaultTimeout: 30 * time.Second,
			}, enabled, "", ready)
		}()
		var addr net.Addr
		select {
		case addr = <-ready:
		case err := <-errc:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never became ready")
		}
		base := "http://" + addr.String()

		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if enabled && resp.StatusCode != http.StatusOK {
			t.Errorf("pprof enabled: /debug/pprof/ status = %d, want 200", resp.StatusCode)
		}
		if !enabled && resp.StatusCode == http.StatusOK {
			t.Errorf("pprof disabled: /debug/pprof/ status = %d, want non-200", resp.StatusCode)
		}

		resp, err = http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz status = %d with pprof=%v", resp.StatusCode, enabled)
		}

		cancel()
		if err := <-errc; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}
}

// TestRunRecordsTrace: with a record path, every exchange lands in a
// decodable trace file once the server shuts down.
func TestRunRecordsTrace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracePath := filepath.Join(t.TempDir(), "trace.ndjson")
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", server.Config{
			DefaultTimeout: 30 * time.Second,
		}, false, tracePath, ready)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/solve?client=rec-test", "application/json", strings.NewReader(`{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true,
		"objective": "min-latency"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := replay.DecodeTrace(f)
	if err != nil {
		t.Fatalf("decoding the recorded trace: %v", err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(tr.Events))
	}
	if tr.Events[1].Client != "rec-test" {
		t.Errorf("recorded client = %q, want rec-test", tr.Events[1].Client)
	}
	if tr.Events[1].Status != http.StatusOK || !strings.Contains(tr.Events[1].Response, `"latency": 17`) {
		t.Errorf("recorded solve event: status %d, response %s", tr.Events[1].Status, tr.Events[1].Response)
	}
}

// TestParseWeights covers the -tenant-weights flag parser.
func TestParseWeights(t *testing.T) {
	got, err := parseWeights("interactive=4, batch=1")
	if err != nil {
		t.Fatal(err)
	}
	if got["interactive"] != 4 || got["batch"] != 1 || len(got) != 2 {
		t.Fatalf("parseWeights = %v", got)
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Fatalf("empty = %v, %v", w, err)
	}
	for _, bad := range []string{"x", "x=", "x=0", "x=-1", "=2", "x=two"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}
