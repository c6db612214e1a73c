// Command wfserve serves repliflow solves over HTTP/JSON on the shared
// concurrent batch engine: requests are validated, canonicalized,
// deadline-bounded, coalesced through the engine's fingerprint cache and
// solved on a bounded worker pool.
//
// Usage:
//
//	wfserve [-addr :8080] [-workers N] [-max-inflight N]
//	        [-timeout 30s] [-max-timeout 5m] [-max-batch N]
//	        [-max-cache-entries N] [-max-exhaustive-procs N]
//	        [-budget 0] [-parallelism N] [-heartbeat 10s]
//	        [-max-jobs N] [-pprof]
//	        [-rate 0] [-burst 0] [-tenant-weights a=3,b=1]
//	        [-record trace.ndjson]
//	        [-store-dir DIR]
//
// -workers sizes the engine's solve-slot pool: the total number of
// solves running concurrently across all requests. -parallelism sets
// the default number of workers one exhaustive solve may additionally
// partition itself across (requests override it via the parallelism
// field). The two compose without oversubscription: a solve only gains
// intra-solve workers by claiming idle slots from the same -workers
// pool, so a loaded server degrades every solve to serial rather than
// running workers x parallelism goroutines.
//
// Endpoints (bodies documented in docs/wire-format.md):
//
//	POST /v1/solve        solve one instance
//	POST /v1/solve/batch  solve many instances concurrently, deduplicated
//	POST /v1/pareto       stream the period/latency front as NDJSON,
//	                      each point as soon as it is proven
//	POST /v1/jobs         submit an async solve/batch/pareto job
//	GET  /v1/jobs/{id}    job progress and results (DELETE cancels)
//	GET  /v1/classify     Table 1 cell metadata for one dispatch cell
//	GET  /v1/table        metadata for every registered cell
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus metrics (requests, cache, latency)
//
// -rate enables multi-tenant admission control: each client (identified
// by the X-Client-Id header or ?client= query parameter) gets a token
// bucket refilling at -rate tokens/second with -burst capacity, and
// requests are debited by solver cost (polynomial cells cost 1,
// budgeted anytime solves 4, NP-hard exhaustive solves 16; batches sum,
// Pareto sweeps multiply by 4). Over-budget requests get 429 with a
// Retry-After header. -tenant-weights biases the fair queue that hands
// out solve slots under contention (weights shape scheduling only, not
// rate limits).
//
// -store-dir makes the server durable: every async job transition and
// every completed NP-hard solve result is written through to an
// append-only, periodically compacted log in that directory (see
// docs/wire-format.md "Store files"). A wfserve restarted on the same
// directory — even after a kill -9 — resumes the interrupted jobs it
// finds there (a partial Pareto front is preloaded, never shrinking),
// serves the finished ones, and answers repeated NP-hard solves from
// the persisted result store instead of re-proving them. Without
// -store-dir job records live in bounded process memory only.
// -max-jobs bounds the live (queued or running) jobs either way.
//
// -record appends every HTTP exchange (request, response, arrival
// offset, client id) to a versioned NDJSON trace file that cmd/wfreplay
// can replay deterministically against another build — see
// docs/wire-format.md "Trace files".
//
// With -pprof the Go profiling endpoints are additionally served under
// /debug/pprof/ (see docs/performance.md for a profiling walkthrough);
// they are off by default because they expose process internals.
//
// On SIGINT/SIGTERM the server drains: in-flight solves are cancelled,
// streaming responses finish their current line and append a terminal
// status line (never truncating mid-JSON), async jobs record
// cancellation, and the listener closes once the handlers return.
//
// Try it:
//
//	wfserve &
//	curl -s localhost:8080/v1/solve -d '{
//	  "pipeline": {"weights": [14, 4, 2, 4]},
//	  "platform": {"speeds": [1, 1, 1]},
//	  "allowDataParallel": true,
//	  "objective": "min-latency"
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/replay"
	"repliflow/internal/server"
	"repliflow/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	inflight := flag.Int("max-inflight", 0, "max concurrently solving requests (0 = 2x workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request solve deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper clamp on request-supplied deadlines")
	maxBatch := flag.Int("max-batch", 4096, "max instances per batch request")
	maxCache := flag.Int("max-cache-entries", 0, "engine cache bound, epoch-evicted on overflow (0 = 65536)")
	maxProcs := flag.Int("max-exhaustive-procs", 0, "override the exhaustive-search processor limits (pipeline and fork) for NP-hard cells (0 = defaults)")
	budget := flag.Duration("budget", 0, "default anytime budget for NP-hard solves: return a certified incumbent within this duration instead of searching exhaustively (0 = disabled; requests opt in via budgetMs)")
	parallelism := flag.Int("parallelism", 0, "default per-solve search parallelism for exhaustive solves (0 or 1 = serial, n > 1 = up to n workers, negative = auto); extra workers come from idle -workers slots, so the engine pool is never oversubscribed")
	heartbeat := flag.Duration("heartbeat", 0, "idle interval between heartbeat status lines on streaming responses (0 = 10s)")
	maxJobs := flag.Int("max-jobs", 0, "bound on live (queued or running) async jobs; a submission beyond it gets 503 (0 = 64)")
	pprofOn := flag.Bool("pprof", false, "serve the Go profiling endpoints under /debug/pprof/ (off by default: they expose process internals)")
	rate := flag.Float64("rate", 0, "per-client admission rate in cost tokens per second (0 = admission control disabled); see docs/wire-format.md for per-endpoint costs")
	burst := flag.Float64("burst", 0, "per-client token bucket capacity (0 = 64, four exhaustive solves)")
	weightsFlag := flag.String("tenant-weights", "", "comma-separated client=weight pairs biasing the fair queue (e.g. interactive=4,batch=1); unlisted clients weigh 1")
	record := flag.String("record", "", "append every HTTP exchange to this NDJSON trace file for later wfreplay")
	storeDir := flag.String("store-dir", "", "directory for durable job and result persistence (append-only compacted log); a restart on the same directory resumes interrupted jobs (empty = in-memory only)")
	flag.Parse()

	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfserve:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:         *workers,
		MaxInFlight:     *inflight,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxBatch:        *maxBatch,
		MaxCacheEntries: *maxCache,
		DefaultBudget:   *budget,
		StreamHeartbeat: *heartbeat,
		MaxJobs:         *maxJobs,
		RateLimit:       *rate,
		Burst:           *burst,
		TenantWeights:   weights,
		Options: core.Options{
			MaxExhaustivePipelineProcs: *maxProcs,
			MaxExhaustiveForkProcs:     *maxProcs,
			Parallelism:                *parallelism,
		},
	}
	var disk *store.DiskStore
	if *storeDir != "" {
		disk, err = store.OpenDisk(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfserve: opening store:", err)
			os.Exit(1)
		}
		cfg.Store = disk
		log.Printf("wfserve: durable store at %s", *storeDir)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	runErr := run(ctx, *addr, cfg, *pprofOn, *record, nil)
	stop()
	if disk != nil {
		// Closed after run returns so the drain's final job writes land,
		// then the log is compacted to a clean snapshot.
		if err := disk.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("closing store: %w", err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "wfserve:", runErr)
		os.Exit(1)
	}
}

// parseWeights parses "client=weight,client=weight" into the tenant
// weight map; an empty string means no weights.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want client=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights weight %q for client %q (want a positive integer)", val, name)
		}
		weights[name] = w
	}
	return weights, nil
}

// run listens on addr and serves until ctx is cancelled (SIGINT/SIGTERM
// in production), then drains in-flight requests gracefully. When ready
// is non-nil it receives the bound address once the listener is up.
// pprofOn opt-in mounts the net/http/pprof handlers under /debug/pprof/.
// A non-empty recordPath appends every API exchange to that trace file
// (pprof traffic is never recorded).
func run(ctx context.Context, addr string, cfg server.Config, pprofOn bool, recordPath string, ready chan<- net.Addr) error {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var handler http.Handler = srv
	var rec *replay.Recorder
	if recordPath != "" {
		f, err := os.OpenFile(recordPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			ln.Close() //nolint:errcheck
			return fmt.Errorf("opening trace file: %w", err)
		}
		defer f.Close() //nolint:errcheck
		rec = replay.NewRecorder(handler, f)
		handler = rec
		log.Printf("wfserve: recording traffic to %s", recordPath)
	}
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("wfserve: listening on %s (workers=%d)", ln.Addr(), srv.Engine().Workers())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("wfserve: shutting down")
	// Drain order matters for streaming responses: srv.Close cancels the
	// in-flight solve contexts, so a /v1/pareto stream finishes its
	// current NDJSON line and appends a terminal status line instead of
	// being truncated mid-JSON when the Shutdown deadline fires; Shutdown
	// then waits for those (now fast) handlers to return.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return fmt.Errorf("recording trace: %w", err)
		}
	}
	return nil
}
