package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/store"
	"strings"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-safe default applied by New.
type Config struct {
	// Engine is the shared batch solver; nil constructs a fresh one
	// sized to Workers.
	Engine *engine.Engine
	// Workers sizes the engine constructed when Engine is nil;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of requests solving concurrently;
	// excess requests queue (weighted-fair across tenants) until a slot
	// frees or their deadline expires. <= 0 selects 2x the engine worker
	// count.
	//
	// The 2x default composes deliberately with the engine's slot
	// donation (intra-solve parallelism): a solve asking for extra
	// workers claims only *idle* engine slots, non-blocking, and returns
	// them when it finishes — so a donating solve can delay queued
	// requests by at most its own duration, never park them behind a
	// growing backlog. With MaxInFlight = 2x workers the request queue
	// keeps the engine saturated even when half the admitted requests
	// are waiting on engine slots a donor borrowed; admission fairness
	// is preserved because every request — donating or not — passes the
	// same per-tenant fair queue first. See TestDonationDoesNotStarveQueuedTenants.
	MaxInFlight int
	// DefaultTimeout applies when a request carries no timeoutMs;
	// <= 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts; <= 0 selects 5m.
	MaxTimeout time.Duration
	// MaxBatch bounds the instance count of one batch request;
	// <= 0 selects 4096.
	MaxBatch int
	// MaxBodyBytes bounds request body size; <= 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxCacheEntries bounds the engine cache when the server constructs
	// its own engine (epoch eviction on overflow); <= 0 selects 65536.
	// Ignored when Engine is supplied — the caller owns its limits then.
	MaxCacheEntries int
	// DefaultBudget is the anytime budget applied to requests that carry
	// no budgetMs of their own: NP-hard instances then return a
	// certified incumbent within roughly this duration instead of
	// searching exhaustively, bounding the service's worst-case solve
	// latency. 0 disables anytime solving by default (requests can still
	// opt in per call).
	DefaultBudget time.Duration
	// StreamHeartbeat is the idle interval after which /v1/pareto emits a
	// heartbeat status line while a slow sweep is between points, keeping
	// the connection visibly alive through proxies and client read
	// timeouts; <= 0 selects 10s.
	StreamHeartbeat time.Duration
	// MaxJobs bounds the live (queued or running) async jobs of
	// /v1/jobs: a submission while that many are live is rejected with
	// 503. Finished jobs do not count; they stay in Store until deleted
	// (or evicted by a bounded store). <= 0 selects 64.
	MaxJobs int
	// Store holds every async job's record — the only copy of it, which
	// all /v1/jobs views read — and NP-hard solve results: every job
	// transition writes through to it, New re-runs the non-terminal jobs
	// it finds, and the engine consults it before expensive solves. nil
	// selects a bounded in-memory store (store.Mem()) for jobs only —
	// nothing survives a restart, and the engine skips the store since
	// its own fingerprint cache already covers in-memory result reuse.
	// wfserve -store-dir plugs in store.OpenDisk. The server does not
	// close the store; the caller owning it does, after shutdown.
	Store store.Store
	// RateLimit enables per-client cost-based admission control: each
	// client's token bucket refills at this many tokens per second, and
	// every solve-bearing request (solve, batch, pareto, job submission)
	// debits its classified cost before queueing — polynomial solves
	// cost 1 token, NP-hard solves under an anytime budget 4, NP-hard
	// exhaustive solves 16, and Pareto sweeps 4x their instance's cost.
	// A request the bucket cannot cover is rejected with 429, a
	// Retry-After header and error kind "rate-limited". 0 disables rate
	// limiting (the default); metadata endpoints are never limited.
	RateLimit float64
	// Burst is the token-bucket capacity per client; <= 0 selects 64
	// (four exhaustive solves). A fresh client starts with a full
	// bucket. Requests costing more than one full bucket are admitted
	// only from a full bucket and drive it negative, so they stay
	// servable but pay proportionally longer refill.
	Burst float64
	// TenantWeights biases the fair queue: a tenant with weight w
	// receives up to w consecutive slot grants per round-robin rotation.
	// Unlisted tenants (and weights < 1) weigh 1. Weights shape queueing
	// only — rate limits are per-bucket and unweighted.
	TenantWeights map[string]int
	// Options tunes the exhaustive-search limits of every solve.
	Options core.Options
}

// Server is the HTTP solve service. Construct with New; a Server is an
// http.Handler and is safe for concurrent use.
type Server struct {
	eng            *engine.Engine
	opts           core.Options
	defaultBudget  time.Duration
	fq             *fairQueue
	adm            *admission
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxBatch       int
	maxBodyBytes   int64
	heartbeat      time.Duration

	// baseCtx is the drain signal: Close cancels it, which cancels every
	// request-derived solve context — streaming handlers then finish
	// their current line and write a terminal status line, and async
	// jobs record cancellation — so shutdown never truncates a stream
	// mid-JSON.
	baseCtx   context.Context
	closeBase context.CancelFunc

	jobs          *jobManager
	metrics       *metrics
	inflight      atomic.Int64
	rateLimited   atomic.Uint64
	anytimeSolves atomic.Uint64
	streamPoints  atomic.Uint64
	start         time.Time
	mux           *http.ServeMux

	// Persistence (persist.go): the job and result store, and its
	// traffic counters for /metrics.
	store             store.Store
	storeWrites       atomic.Uint64
	storeErrors       atomic.Uint64
	storeResultHits   atomic.Uint64
	storeResultMisses atomic.Uint64
	storeRecovered    atomic.Uint64
}

// New returns a Server with cfg's defaults applied.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(cfg.Workers)
		if cfg.MaxCacheEntries <= 0 {
			cfg.MaxCacheEntries = 65536
		}
		eng.SetCacheLimit(cfg.MaxCacheEntries)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * eng.Workers()
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 10 * time.Second
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 4 * costExhaustive
	}
	explicitStore := cfg.Store != nil
	if cfg.Store == nil {
		cfg.Store = store.Mem()
	}
	baseCtx, closeBase := context.WithCancel(context.Background())
	s := &Server{
		eng:            eng,
		opts:           cfg.Options,
		defaultBudget:  cfg.DefaultBudget,
		fq:             newFairQueue(cfg.MaxInFlight, cfg.TenantWeights),
		adm:            newAdmission(cfg.RateLimit, cfg.Burst),
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     maxClamp(cfg.DefaultTimeout, cfg.MaxTimeout),
		maxBatch:       cfg.MaxBatch,
		maxBodyBytes:   cfg.MaxBodyBytes,
		heartbeat:      cfg.StreamHeartbeat,
		baseCtx:        baseCtx,
		closeBase:      closeBase,
		jobs:           newJobManager(cfg.MaxJobs),
		metrics:        newMetrics(),
		start:          time.Now(),
		store:          cfg.Store,
	}
	if cfg.Engine == nil && explicitStore {
		// The server-owned engine consults the store before NP-hard
		// solves and writes proofs back (a supplied Engine is the
		// caller's to configure, as with the cache limit). The default
		// in-memory store is skipped: it would only duplicate the
		// engine's own fingerprint cache, at a marshal per solve.
		eng.SetResultStore(resultStore{s})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.counted("/v1/solve", s.handleSolve))
	mux.HandleFunc("POST /v1/solve/batch", s.counted("/v1/solve/batch", s.handleSolveBatch))
	mux.HandleFunc("POST /v1/pareto", s.counted("/v1/pareto", s.handlePareto))
	mux.HandleFunc("POST /v1/jobs", s.counted("/v1/jobs", s.handleJobCreate))
	mux.HandleFunc("GET /v1/jobs", s.counted("/v1/jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.counted("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.counted("/v1/jobs/{id}", s.handleJobDelete))
	mux.HandleFunc("GET /v1/classify", s.counted("/v1/classify", s.handleClassify))
	mux.HandleFunc("GET /v1/table", s.counted("/v1/table", s.handleTable))
	mux.HandleFunc("GET /healthz", s.counted("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	s.recoverJobs()
	return s
}

// Close begins draining the server: every in-flight solve context is
// cancelled, so streaming responses finish their current line and append
// a terminal status line, synchronous solves return structured
// shutting-down errors, and async jobs record cancellation. Call it
// before http.Server.Shutdown, which then waits for the (now fast)
// handlers to return. Close is idempotent and does not wait.
func (s *Server) Close() { s.closeBase() }

// closing reports whether Close has been called.
func (s *Server) closing() bool { return s.baseCtx.Err() != nil }

// maxClamp guarantees the effective maximum timeout never undercuts the
// default, so a request without timeoutMs is never clamped below it.
func maxClamp(def, max time.Duration) time.Duration {
	if max < def {
		return def
	}
	return max
}

// Engine returns the server's shared engine (for tests and stats).
func (s *Server) Engine() *engine.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// counted wraps a handler with request counting and body-size limiting.
func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.metrics.recordRequest(endpoint, rec.status)
	}
}

// timeoutFor clamps a request-supplied timeout to the server bounds.
func (s *Server) timeoutFor(timeoutMs int64) time.Duration {
	timeout := s.defaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
		if timeout > s.maxTimeout {
			timeout = s.maxTimeout
		}
	}
	return timeout
}

// requestContext derives the solve context: the client's context bounded
// by the request timeout (clamped to the server maximum) and by the
// server's drain signal, so Close cancels in-flight solves promptly.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(timeoutMs))
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquire claims an in-flight slot for client, waiting until one frees
// or ctx expires. The bounded pool keeps long exhaustive solves on
// NP-hard cells from monopolizing the process: excess requests queue —
// weighted-fair across tenants, FIFO within one — instead of stacking
// goroutines onto the engine.
func (s *Server) acquire(ctx context.Context, client string) error {
	if err := s.fq.acquire(ctx, client); err != nil {
		return err
	}
	s.inflight.Add(1)
	return nil
}

func (s *Server) release() {
	s.inflight.Add(-1)
	s.fq.release()
}

// admit applies cost-based admission for the request. On rejection it
// writes the 429 response (with Retry-After) and returns false; when
// rate limiting is disabled every request is admitted.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, cost float64, pr *core.Problem) bool {
	if !s.adm.enabled() {
		return true
	}
	retry, ok := s.adm.admit(ClientID(r), cost)
	if ok {
		return true
	}
	s.rateLimited.Add(1)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, ErrKindRateLimited,
		fmt.Sprintf("client %q over its admission rate (request cost %g tokens); retry in %ds",
			ClientID(r), cost, secs), pr)
	return false
}

// solveOptions derives the per-request solve options: a positive
// budgetMs engages anytime solving for this request, a negative one
// explicitly opts out (exhaustive/heuristic solving even on a server
// with a default budget), and zero falls back to the server default —
// or to a budget configured directly on Config.Options.AnytimeBudget.
// A non-zero parallelism overrides the configured default per-solve
// search parallelism (Config.Options.Parallelism); requests ask for
// serial explicitly with 1.
func (s *Server) solveOptions(budgetMs int64, parallelism int) core.Options {
	opts := s.opts
	switch {
	case budgetMs > 0:
		opts.AnytimeBudget = time.Duration(budgetMs) * time.Millisecond
	case budgetMs < 0:
		opts.AnytimeBudget = 0
	case s.defaultBudget > 0:
		opts.AnytimeBudget = s.defaultBudget
	}
	if parallelism != 0 {
		opts.Parallelism = parallelism
	}
	return opts
}

// countAnytime tracks certified anytime results for /metrics.
func (s *Server) countAnytime(sols ...instance.SolutionJSON) {
	for _, sol := range sols {
		if sol.Anytime {
			s.anytimeSolves.Add(1)
		}
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	pr, err := req.Instance.Problem()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, err.Error(), nil)
		return
	}
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	if !s.admit(w, r, solveCost(pr, opts), &pr) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	if err := s.acquire(ctx, ClientID(r)); err != nil {
		s.writeQueueError(w, err, &pr)
		return
	}
	defer s.release()

	start := time.Now()
	sol, err := s.eng.Solve(ctx, pr, opts)
	elapsed := time.Since(start)
	cell := core.CellKeyOf(pr).String()
	s.metrics.recordSolve(cell, "solve", elapsed.Seconds())
	if err != nil {
		s.writeRequestError(w, err, &pr)
		return
	}
	out := instance.FromSolution(sol)
	s.countAnytime(out)
	writeJSON(w, http.StatusOK, SolveResponse{
		Solution:  out,
		Cell:      cell,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	})
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Instances) == 0 {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, "instances must be non-empty", nil)
		return
	}
	if len(req.Instances) > s.maxBatch {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest,
			fmt.Sprintf("batch of %d instances exceeds the limit of %d", len(req.Instances), s.maxBatch), nil)
		return
	}
	problems := make([]core.Problem, len(req.Instances))
	for i, ins := range req.Instances {
		pr, err := ins.Problem()
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrKindInvalidRequest,
				fmt.Sprintf("instances[%d]: %v", i, err), nil)
			return
		}
		problems[i] = pr
	}
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	if !s.admit(w, r, batchCost(problems, opts), nil) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	if err := s.acquire(ctx, ClientID(r)); err != nil {
		s.writeQueueError(w, err, nil)
		return
	}
	defer s.release()

	before := s.eng.Stats()
	start := time.Now()
	sols, err := s.eng.SolveBatch(ctx, problems, opts)
	elapsed := time.Since(start)
	after := s.eng.Stats()
	// Batches are deliberately absent from wfserve_solve_seconds: the
	// wall clock of N parallel solves tells nothing about any single
	// cell, and recording elapsed/N would poison the per-cell
	// histograms. Batch latency is visible through elapsedMs and
	// wfserve_requests_total.
	if err != nil {
		s.writeRequestError(w, err, nil)
		return
	}
	out := make([]instance.SolutionJSON, len(sols))
	for i, sol := range sols {
		out[i] = instance.FromSolution(sol)
	}
	s.countAnytime(out...)
	writeJSON(w, http.StatusOK, BatchResponse{
		Solutions: out,
		Cache: CacheStats{
			Hits:          after.Hits,
			Misses:        after.Misses,
			HitRatio:      after.HitRatio(),
			Size:          after.Size,
			RequestHits:   after.Hits - before.Hits,
			RequestMisses: after.Misses - before.Misses,
		},
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	})
}

// handlePareto sweeps the period/latency trade-off curve and streams it
// as NDJSON, incrementally: each SolutionJSON line is written and flushed
// the moment the engine proves the point final (engine.SweepFront), in
// increasing-period order — the first line reaches the client while the
// rest of the sweep is still running. While a slow sweep is between
// points the stream carries heartbeat status lines, and every stream
// ends with a terminal status line reporting the sweep outcome and how
// many of its units were explored. When the deadline expires (or
// the server drains) mid-sweep, the points already written stand as a
// well-formed partial front — a prefix of the full one — and the
// terminal line carries the error; a bare error response is only
// returned for failures before the first line.
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	// The sweep ignores the objective; let bare instances omit it.
	if req.Instance.Objective == "" {
		req.Instance.Objective = "min-period"
	}
	pr, err := req.Instance.Problem()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, err.Error(), nil)
		return
	}
	sweep := pr
	sweep.Objective = core.MinPeriod
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	if !s.admit(w, r, paretoCostFactor*solveCost(sweep, opts), &sweep) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	if err := s.acquire(ctx, ClientID(r)); err != nil {
		s.writeQueueError(w, err, &pr)
		return
	}
	defer s.release()

	start := time.Now()
	ps := &paretoStream{w: w, start: start}
	stopHeartbeats := ps.startHeartbeats(s.heartbeat)
	stats, err := s.eng.SweepFront(ctx, pr, opts, engine.SweepObserver{
		Point: func(p engine.SweepPoint) error {
			out := instance.FromSolution(p.Solution)
			s.countAnytime(out)
			s.streamPoints.Add(1)
			return ps.writePoint(out, p.Explored, p.Total)
		},
		Progress: ps.progress,
	})
	stopHeartbeats()
	s.metrics.recordSolve(core.CellKeyOf(sweep).String(), "pareto", time.Since(start).Seconds())
	// The terminal line reports the sweep's final units.
	ps.progress(stats.Explored, stats.Total)

	switch {
	case err == nil:
		ps.writeTerminal(StreamStatusComplete, nil)
	case !ps.committed():
		// Nothing on the wire yet: a plain structured error response.
		s.writeRequestError(w, err, &sweep)
	default:
		// The stream is live (a line already committed the 200): end it
		// with a well-formed terminal status line instead of truncating —
		// never a bare 504 after a point has been delivered.
		status, body := s.terminalStatusOf(err, &sweep)
		ps.writeTerminal(status, body)
	}
}

// paretoStream serializes the NDJSON lines of one /v1/pareto response:
// solution points from the sweep, heartbeats from a ticker goroutine and
// the terminal status line, under one mutex so lines never interleave.
// The 200 header is committed lazily by whichever line is written first.
type paretoStream struct {
	w     http.ResponseWriter
	start time.Time

	mu       sync.Mutex
	flusher  http.Flusher
	begun    bool
	failed   bool // a write failed: the client is gone
	points   int
	explored int
	total    int
}

// writeLineLocked writes one NDJSON line and flushes it, committing the
// 200 response on the first line. Callers hold mu.
func (ps *paretoStream) writeLineLocked(v any) error {
	if ps.failed {
		return http.ErrAbortHandler
	}
	if !ps.begun {
		ps.begun = true
		ps.w.Header().Set("Content-Type", "application/x-ndjson")
		ps.w.WriteHeader(http.StatusOK)
		ps.flusher, _ = ps.w.(http.Flusher)
	}
	if err := writeNDJSONLine(ps.w, v); err != nil {
		ps.failed = true
		return err
	}
	if ps.flusher != nil {
		ps.flusher.Flush()
	}
	return nil
}

// writePoint writes one confirmed front point.
func (ps *paretoStream) writePoint(sol instance.SolutionJSON, explored, total int) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.points++
	ps.explored, ps.total = explored, total
	return ps.writeLineLocked(sol)
}

// progress records sweep progress for heartbeat and terminal lines.
func (ps *paretoStream) progress(explored, total int) {
	ps.mu.Lock()
	ps.explored, ps.total = explored, total
	ps.mu.Unlock()
}

// committed reports whether any line has been written (the 200 is on the
// wire and errors must be delivered in-stream).
func (ps *paretoStream) committed() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.begun
}

// statusLocked assembles a status line snapshot. Callers hold mu.
func (ps *paretoStream) statusLocked(status string) StreamStatus {
	return StreamStatus{
		Status:          status,
		Points:          ps.points,
		Explored:        ps.explored,
		TotalCandidates: ps.total,
		Unexplored:      ps.total - ps.explored,
		ElapsedMs:       float64(time.Since(ps.start)) / float64(time.Millisecond),
	}
}

// writeTerminal ends the stream with its terminal status line.
func (ps *paretoStream) writeTerminal(status string, errBody *ErrorBody) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	line := ps.statusLocked(status)
	line.Error = errBody
	ps.writeLineLocked(line) //nolint:errcheck // the client is gone if this fails
}

// startHeartbeats emits a heartbeat status line every interval until the
// returned stop function is called; stop waits for an in-flight
// heartbeat write, so the terminal line is always the last line.
func (ps *paretoStream) startHeartbeats(every time.Duration) (stop func()) {
	ticker := time.NewTicker(every)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ticker.C:
				ps.mu.Lock()
				ps.writeLineLocked(ps.statusLocked(StreamStatusHeartbeat)) //nolint:errcheck // kept alive best-effort
				ps.mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(done)
		wg.Wait()
	}
}

// terminalStatusOf maps a mid-stream sweep error to its terminal status
// line: the stream-level analogue of writeSolveError.
func (s *Server) terminalStatusOf(err error, pr *core.Problem) (string, *ErrorBody) {
	switch {
	case s.closing() && errors.Is(err, context.Canceled):
		return StreamStatusShuttingDown, errorBodyFor(ErrKindShuttingDown, "server shutting down", pr)
	case errors.Is(err, context.DeadlineExceeded):
		return StreamStatusDeadlineExceeded, errorBodyFor(ErrKindDeadlineExceeded, err.Error(), pr)
	case errors.Is(err, context.Canceled):
		return StreamStatusCanceled, errorBodyFor(ErrKindCanceled, err.Error(), pr)
	default:
		return StreamStatusFailed, errorBodyFor(ErrKindInternal, err.Error(), pr)
	}
}

// writeRequestError maps a solve error to a structured response,
// upgrading cancellations caused by server drain (Close) to a
// shutting-down 503 — the client did not abort, the server did.
func (s *Server) writeRequestError(w http.ResponseWriter, err error, pr *core.Problem) {
	if s.closing() && errors.Is(err, context.Canceled) {
		writeError(w, http.StatusServiceUnavailable, ErrKindShuttingDown, "server shutting down", pr)
		return
	}
	writeSolveError(w, err, pr)
}

// writeQueueError is writeAcquireError with the same drain upgrade: a
// request whose wait for a solve slot was cut short by Close gets the
// 503 shutting-down response, not a 499 blaming the client.
func (s *Server) writeQueueError(w http.ResponseWriter, err error, pr *core.Problem) {
	if s.closing() && errors.Is(err, context.Canceled) {
		writeError(w, http.StatusServiceUnavailable, ErrKindShuttingDown, "server shutting down", pr)
		return
	}
	writeAcquireError(w, err, pr)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key, err := cellKeyFromQuery(q.Get("kind"), q.Get("platform"), q.Get("graph"), q.Get("dp"), q.Get("objective"))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, err.Error(), nil)
		return
	}
	info, ok := cellInfo(key)
	if !ok {
		writeError(w, http.StatusInternalServerError, ErrKindInternal,
			fmt.Sprintf("no solver registered for cell %v", key), nil)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	keys := core.AllCellKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	cells := make([]CellInfo, 0, len(keys))
	for _, key := range keys {
		if info, ok := cellInfo(key); ok {
			cells = append(cells, info)
		}
	}
	writeJSON(w, http.StatusOK, TableResponse{Cells: cells})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.eng.Stats()
	st := s.store.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, []gauge{
		{"wfserve_cache_hits_total", "Engine cache hits (coalesced and memoized solves).", "counter", float64(stats.Hits)},
		{"wfserve_cache_misses_total", "Engine cache misses (solves that ran the dispatcher).", "counter", float64(stats.Misses)},
		{"wfserve_cache_hit_ratio", "Hits / (hits + misses) over the engine lifetime.", "gauge", stats.HitRatio()},
		{"wfserve_cache_size", "Completed solutions held by the engine cache.", "gauge", float64(stats.Size)},
		{"wfserve_inflight_requests", "Requests currently holding a solve slot.", "gauge", float64(s.inflight.Load())},
		{"wfserve_queued_requests", "Requests waiting in the weighted-fair slot queue.", "gauge", float64(s.fq.queued())},
		{"wfserve_rate_limited_total", "Requests rejected with 429 by per-client admission control.", "counter", float64(s.rateLimited.Load())},
		{"wfserve_tenants", "Client token buckets currently tracked by admission control.", "gauge", float64(s.adm.tenants())},
		{"wfserve_anytime_solves_total", "Solutions returned with anytime gap certification.", "counter", float64(s.anytimeSolves.Load())},
		{"wfserve_stream_points_total", "Pareto front points streamed over /v1/pareto.", "counter", float64(s.streamPoints.Load())},
		{"wfserve_jobs_active", "Async jobs currently queued or running.", "gauge", float64(s.jobs.active())},
		{"wfserve_jobs_total", "Async jobs accepted since the server started.", "counter", float64(s.jobs.created())},
		{"wfserve_store_jobs", "Job records held by the persistence store.", "gauge", float64(st.Jobs)},
		{"wfserve_store_results", "Solve results held by the persistence store.", "gauge", float64(st.Results)},
		{"wfserve_store_writes_total", "Records written through to the persistence store.", "counter", float64(s.storeWrites.Load())},
		{"wfserve_store_errors_total", "Store operations that failed (served from memory instead).", "counter", float64(s.storeErrors.Load())},
		{"wfserve_store_result_hits_total", "NP-hard solves answered from the persisted result store.", "counter", float64(s.storeResultHits.Load())},
		{"wfserve_store_result_misses_total", "Persisted-result lookups that missed and ran the solver.", "counter", float64(s.storeResultMisses.Load())},
		{"wfserve_store_recovered_jobs_total", "Orphaned jobs adopted from the store and re-run.", "counter", float64(s.storeRecovered.Load())},
		{"wfserve_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(s.start).Seconds()},
	}, s.eng.Panics())
}

// cellInfo assembles the CellInfo of a dispatch cell.
func cellInfo(key core.CellKey) (CellInfo, bool) {
	entry, ok := core.LookupSolver(key)
	if !ok {
		return CellInfo{}, false
	}
	cl := core.ClassifyCell(key)
	return CellInfo{
		Cell:                key.String(),
		Kind:                key.Kind.String(),
		PlatformHomogeneous: key.PlatformHomogeneous,
		GraphHomogeneous:    key.GraphHomogeneous,
		DataParallel:        key.DataParallel,
		Objective:           instance.ObjectiveName(key.Objective),
		Complexity:          instance.ComplexityName(cl.Complexity),
		Source:              cl.Source,
		Method:              instance.MethodName(entry.Method),
		Exact:               entry.Exact,
	}, true
}

// kindNamesList renders the registered wire kind names for error text.
func kindNamesList() string {
	specs := core.KindSpecs()
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	return strings.Join(names, ", ")
}

// cellKeyFromQuery parses the /v1/classify query parameters. kind is
// required and resolved against the kind registry; platform and graph
// default to "het", dp to false, objective to min-period.
func cellKeyFromQuery(kind, plat, graph, dp, objective string) (core.CellKey, error) {
	var key core.CellKey
	if kind == "" {
		return key, fmt.Errorf("missing kind (want one of %s)", kindNamesList())
	}
	if kind == "forkjoin" {
		kind = "fork-join" // historical query-parameter alias
	}
	spec, err := core.KindByName(kind)
	if err != nil {
		return key, fmt.Errorf("unknown kind %q (want one of %s)", kind, kindNamesList())
	}
	key.Kind = spec.Kind
	if key.PlatformHomogeneous, err = parseHom("platform", plat); err != nil {
		return key, err
	}
	if key.GraphHomogeneous, err = parseHom("graph", graph); err != nil {
		return key, err
	}
	if dp != "" {
		if key.DataParallel, err = strconv.ParseBool(dp); err != nil {
			return key, fmt.Errorf("bad dp %q (want true or false)", dp)
		}
		if key.DataParallel && !spec.DataParallel {
			return key, fmt.Errorf("kind %q has no data-parallel mapping model", spec.Name)
		}
	}
	if objective == "" {
		objective = "min-period"
	}
	if key.Objective, err = instance.ParseObjective(objective); err != nil {
		return key, err
	}
	return key, nil
}

// parseHom parses a hom/het axis parameter; empty defaults to het.
func parseHom(name, v string) (bool, error) {
	switch v {
	case "hom", "homogeneous":
		return true, nil
	case "", "het", "heterogeneous":
		return false, nil
	default:
		return false, fmt.Errorf("bad %s %q (want hom or het)", name, v)
	}
}
