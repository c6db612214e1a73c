package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repliflow/internal/core"
	"repliflow/internal/instance"
)

// SolveRequest is the body of POST /v1/solve and POST /v1/pareto: a
// problem instance (docs/wire-format.md) plus request-scoped controls.
// The instance fields are inlined, so a bare instance document is a
// valid request.
type SolveRequest struct {
	instance.Instance
	// TimeoutMs bounds the solve; 0 applies the server default. The
	// effective deadline is clamped to the server's maximum timeout.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// BudgetMs switches NP-hard instances to anytime solving: the
	// portfolio returns its best incumbent (with a certified gap) within
	// roughly this many milliseconds instead of searching exhaustively.
	// 0 applies the server's configured default budget (which may be
	// disabled); a negative value explicitly opts out of anytime solving
	// even when the server has a default. Polynomial instances ignore it.
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// Parallelism partitions each exhaustive solve of this request across
	// workers (core.Options.Parallelism encoding: n > 1 explicit workers,
	// 1 serial, negative auto). 0 applies the server default. The grant is
	// clamped by the engine's idle solve slots, so a loaded server runs
	// the solve serially rather than oversubscribing. Results are
	// byte-identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchRequest is the body of POST /v1/solve/batch.
type BatchRequest struct {
	Instances []instance.Instance `json:"instances"`
	// TimeoutMs bounds the whole batch, not each instance.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// BudgetMs is the whole batch's anytime budget: the engine splits it
	// across its worker rounds, so the batch finishes in roughly this
	// many milliseconds even when every instance is NP-hard.
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// Parallelism is the per-solve search parallelism, as on /v1/solve.
	// Within a batch the engine only grants extra workers to a solve when
	// other batch workers are idle, so the batch never oversubscribes.
	Parallelism int `json:"parallelism,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Solution  instance.SolutionJSON `json:"solution"`
	Cell      string                `json:"cell"`
	ElapsedMs float64               `json:"elapsedMs"`
}

// CacheStats reports engine cache counters: the lifetime totals of the
// shared engine, plus the movement of those counters while this request
// ran. The engine is shared, so under concurrent traffic the request
// deltas include other requests' activity — they are a dedup indicator,
// not an exact per-request accounting.
type CacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRatio      float64 `json:"hitRatio"`
	Size          int     `json:"size"`
	RequestHits   uint64  `json:"requestHits"`
	RequestMisses uint64  `json:"requestMisses"`
}

// BatchResponse is the body of a successful POST /v1/solve/batch.
// Solutions align with BatchRequest.Instances by index.
type BatchResponse struct {
	Solutions []instance.SolutionJSON `json:"solutions"`
	Cache     CacheStats              `json:"cache"`
	ElapsedMs float64                 `json:"elapsedMs"`
}

// StreamStatus is a non-solution line of the /v1/pareto NDJSON stream:
// heartbeats while a slow sweep is between points, and the terminal line
// every stream ends with. Solution lines never carry a "status" field,
// so clients distinguish the two by its presence (strict SolutionJSON
// decoding rejects status lines outright). See docs/wire-format.md.
type StreamStatus struct {
	// Status is "heartbeat" on keep-alive lines, and "complete",
	// "deadline-exceeded", "canceled", "shutting-down" or "failed" on the
	// terminal line.
	Status string `json:"status"`
	// Points counts the solution lines written so far.
	Points int `json:"points"`
	// Explored counts the units the sweep has resolved, TotalCandidates
	// the sweep's as far as they are known: one unit, the front pass, on
	// a sweep with one; on a walk, one unit per step taken plus one
	// until the walk has ended (engine.SweepPoint).
	Explored        int `json:"explored"`
	TotalCandidates int `json:"totalCandidates"`
	// Unexplored is TotalCandidates - Explored: on a terminal line of a
	// cut-short sweep, the number of units left unexplored.
	Unexplored int     `json:"unexplored"`
	ElapsedMs  float64 `json:"elapsedMs"`
	// Error carries the failure on terminal lines of streams that ended
	// early (the structured body a non-streaming response would have).
	Error *ErrorBody `json:"error,omitempty"`
}

// Stream status values.
const (
	StreamStatusHeartbeat        = "heartbeat"
	StreamStatusComplete         = "complete"
	StreamStatusDeadlineExceeded = "deadline-exceeded"
	StreamStatusCanceled         = "canceled"
	StreamStatusShuttingDown     = "shutting-down"
	StreamStatusFailed           = "failed"
)

// JobRequest is the body of POST /v1/jobs: an asynchronous solve, batch
// or pareto request that outlives any single HTTP deadline. Exactly one
// of Instance (kinds "solve" and "pareto") or Instances (kind "batch")
// must be set.
type JobRequest struct {
	// Kind is "solve", "batch" or "pareto".
	Kind string `json:"kind"`
	// Instance is the instance of a solve or pareto job.
	Instance *instance.Instance `json:"instance,omitempty"`
	// Instances are the instances of a batch job.
	Instances []instance.Instance `json:"instances,omitempty"`
	// TimeoutMs bounds the job's run, clamped to the server maximum; 0
	// applies the server default. The job keeps its results after
	// expiry — a deadline turns into a failed (or, for pareto, partial)
	// job, never a lost one.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// BudgetMs is the anytime budget, exactly as on the synchronous
	// endpoints.
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// Parallelism is the per-solve search parallelism, exactly as on the
	// synchronous endpoints.
	Parallelism int `json:"parallelism,omitempty"`
}

// JobProgress reports how far a job has advanced: Done/Total counts
// the sweep's units for pareto jobs (engine.SweepPoint) and instances
// for solve/batch jobs; Points counts confirmed front points of a
// pareto job.
type JobProgress struct {
	Done   int `json:"done"`
	Total  int `json:"total"`
	Points int `json:"points,omitempty"`
}

// Job status values.
const (
	JobStatusQueued   = "queued"
	JobStatusRunning  = "running"
	JobStatusDone     = "done"
	JobStatusFailed   = "failed"
	JobStatusCanceled = "canceled"
)

// JobResponse is the body of POST /v1/jobs (202) and GET /v1/jobs/{id}.
// Result fields appear once the job is terminal: Solution for solve
// jobs, Solutions for batch jobs, Front for pareto jobs (on canceled or
// deadline-expired pareto jobs, the partial front proven before the
// cut — the points are final, the sweep just did not finish).
type JobResponse struct {
	ID        string                  `json:"id"`
	Kind      string                  `json:"kind"`
	Status    string                  `json:"status"`
	ElapsedMs float64                 `json:"elapsedMs"`
	Progress  JobProgress             `json:"progress"`
	Solution  *instance.SolutionJSON  `json:"solution,omitempty"`
	Solutions []instance.SolutionJSON `json:"solutions,omitempty"`
	Front     []instance.SolutionJSON `json:"front,omitempty"`
	Error     *ErrorBody              `json:"error,omitempty"`
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []JobResponse `json:"jobs"`
}

// CellInfo describes one Table 1 dispatch cell: its coordinates, its
// complexity classification with the paper result establishing it, and
// the cell solver's method and exactness (the in-limit path on
// NP-hard cells; oversized instances fall back to heuristics at solve
// time). Returned by GET /v1/classify and GET /v1/table.
type CellInfo struct {
	Cell                string `json:"cell"`
	Kind                string `json:"kind"`
	PlatformHomogeneous bool   `json:"platformHomogeneous"`
	GraphHomogeneous    bool   `json:"graphHomogeneous"`
	DataParallel        bool   `json:"dataParallel"`
	Objective           string `json:"objective"`
	Complexity          string `json:"complexity"`
	Source              string `json:"source"`
	Method              string `json:"method"`
	Exact               bool   `json:"exact"`
}

// TableResponse is the body of GET /v1/table.
type TableResponse struct {
	Cells []CellInfo `json:"cells"`
}

// ErrorBody is the structured error payload: a stable machine-readable
// kind, a human-readable message, and — when the instance classified
// before failing — its Table 1 cell, so clients can tell "this instance
// is NP-hard and timed out" from "this instance is malformed".
type ErrorBody struct {
	Kind       string `json:"kind"`
	Message    string `json:"message"`
	Cell       string `json:"cell,omitempty"`
	Complexity string `json:"complexity,omitempty"`
	Source     string `json:"source,omitempty"`
}

// ErrorResponse wraps every non-2xx JSON body.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// Error kinds carried by ErrorBody.Kind.
const (
	// ErrKindInvalidRequest marks undecodable bodies, bad query
	// parameters and ill-formed instances.
	ErrKindInvalidRequest = "invalid-request"
	// ErrKindDeadlineExceeded marks solves cut off by the request
	// deadline.
	ErrKindDeadlineExceeded = "deadline-exceeded"
	// ErrKindCanceled marks solves aborted by client disconnect.
	ErrKindCanceled = "canceled"
	// ErrKindOverloaded marks requests that could not obtain an
	// in-flight slot before their deadline.
	ErrKindOverloaded = "overloaded"
	// ErrKindRateLimited marks requests rejected by per-client admission
	// control (429): the client's token bucket could not cover the
	// request's cost. The response carries a Retry-After header with the
	// whole seconds until the bucket refills enough.
	ErrKindRateLimited = "rate-limited"
	// ErrKindBodyTooLarge marks request bodies over the server's byte
	// limit.
	ErrKindBodyTooLarge = "body-too-large"
	// ErrKindShuttingDown marks requests cut off by server shutdown
	// (Server.Close): the work was cancelled to drain, not by the client.
	ErrKindShuttingDown = "shutting-down"
	// ErrKindNotFound marks unknown resources (job ids).
	ErrKindNotFound = "not-found"
	// ErrKindInternal marks everything else.
	ErrKindInternal = "internal"
)

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// errorKindOf maps a solve error to its wire kind and HTTP status.
func errorKindOf(err error) (kind string, status int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrKindDeadlineExceeded, http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written for the log's sake.
		return ErrKindCanceled, httpStatusClientClosedRequest
	case core.ErrKindOf(err) == core.ErrKindInvalidInstance:
		return ErrKindInvalidRequest, http.StatusBadRequest
	default:
		return ErrKindInternal, http.StatusInternalServerError
	}
}

// httpStatusClientClosedRequest is nginx's non-standard 499, the
// conventional status for requests aborted by the client.
const httpStatusClientClosedRequest = 499

// errorBodyFor assembles a structured error body. pr carries the Table 1
// classification when the instance was valid (nil otherwise).
func errorBodyFor(kind, message string, pr *core.Problem) *ErrorBody {
	body := &ErrorBody{Kind: kind, Message: message}
	if pr != nil {
		key := core.CellKeyOf(*pr)
		cl := core.ClassifyCell(key)
		body.Cell = key.String()
		body.Complexity = instance.ComplexityName(cl.Complexity)
		body.Source = cl.Source
	}
	return body
}

// writeError writes a structured error response.
func writeError(w http.ResponseWriter, status int, kind, message string, pr *core.Problem) {
	writeJSON(w, status, ErrorResponse{Error: *errorBodyFor(kind, message, pr)})
}

// writeSolveError maps err and writes the structured response for a
// failed solve of problem pr (nil when the instance never canonicalized).
func writeSolveError(w http.ResponseWriter, err error, pr *core.Problem) {
	kind, status := errorKindOf(err)
	writeError(w, status, kind, err.Error(), pr)
}

// writeAcquireError writes the structured response for a request that
// never obtained a solve slot: a client disconnect while queued is a
// cancellation (499), anything else (the request deadline expiring in
// the queue) is genuine saturation (503) — keeping client aborts out of
// the overload signal in wfserve_requests_total.
func writeAcquireError(w http.ResponseWriter, err error, pr *core.Problem) {
	if errors.Is(err, context.Canceled) {
		writeError(w, httpStatusClientClosedRequest, ErrKindCanceled,
			"client disconnected while queued for a solve slot", pr)
		return
	}
	writeError(w, http.StatusServiceUnavailable, ErrKindOverloaded,
		"no solve slot available within the request deadline", pr)
}

// writeDecodeError writes the structured response for a request body
// decodeJSON rejected, distinguishing oversized bodies (413) from
// malformed ones (400).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, ErrKindBodyTooLarge, err.Error(), nil)
		return
	}
	writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, err.Error(), nil)
}

// writeNDJSONLine writes v as one newline-terminated JSON line of an
// NDJSON stream.
func writeNDJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// decodeJSON decodes the request body with the wire format's strictness
// rule (instance.DecodeStrict): unknown fields are rejected so typos
// ("pipleine") fail loudly instead of solving the wrong instance, and
// trailing garbage is an error.
func decodeJSON(r *http.Request, v any) error {
	if err := instance.DecodeStrict(r.Body, v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}
