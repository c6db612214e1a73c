package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// benchPost issues one POST and fails the benchmark on a non-200.
func benchPost(b *testing.B, client *http.Client, url, body string) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkSolveCached measures request throughput when every solve is
// answered from the engine cache — the wire, routing and encoding
// overhead of the service.
func BenchmarkSolveCached(b *testing.B) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	client := ts.Client()
	benchPost(b, client, ts.URL+"/v1/solve", section2) // warm the cache
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, client, ts.URL+"/v1/solve", section2)
		}
	})
}

// BenchmarkSolveUnique measures throughput when every request is a fresh
// instance (cache miss): a polynomial DP solve rides along with the HTTP
// overhead.
func BenchmarkSolveUnique(b *testing.B) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	client := ts.Client()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			body := fmt.Sprintf(`{
				"pipeline": {"weights": [14, 4, 2, %d]},
				"platform": {"speeds": [1, 1, 1]},
				"allowDataParallel": true,
				"objective": "min-latency"
			}`, 4+n)
			benchPost(b, client, ts.URL+"/v1/solve", body)
		}
	})
}

// BenchmarkParetoStream measures the incremental NDJSON sweep end to
// end: request decode, the engine sweep (cold cache each iteration, so
// the bounded solves are real work), per-point encode + flush, and
// the terminal status line. One untimed warmup request pays the
// process-level one-time costs (connection setup, encoding/json
// reflection caches) so single-iteration gate runs measure the sweep,
// not process initialization.
func BenchmarkParetoStream(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	pareto := `{
		"pipeline": {"weights": [14, 4, 2, 4, 7]},
		"platform": {"speeds": [3, 2, 2, 1]},
		"allowDataParallel": true
	}`
	benchPost(b, client, ts.URL+"/v1/pareto", pareto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Engine().Reset() // keep the sweep honest: no memoized fronts
		benchPost(b, client, ts.URL+"/v1/pareto", pareto)
	}
}

// BenchmarkMixedLoad measures the acceptance-criteria workload: mixed
// solve, batch and pareto traffic from concurrent clients (run with
// -cpu to scale the client count; each RunParallel goroutine is one
// client).
func BenchmarkMixedLoad(b *testing.B) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	client := ts.Client()
	batch := fmt.Sprintf(`{"instances": [%s, %s]}`, section2, section2)
	pareto := `{
		"pipeline": {"weights": [14, 4, 2, 4]},
		"platform": {"speeds": [1, 1, 1]},
		"allowDataParallel": true
	}`
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			switch seq.Add(1) % 4 {
			case 0:
				benchPost(b, client, ts.URL+"/v1/pareto", pareto)
			case 1:
				benchPost(b, client, ts.URL+"/v1/solve/batch", batch)
			default:
				benchPost(b, client, ts.URL+"/v1/solve", section2)
			}
		}
	})
}
