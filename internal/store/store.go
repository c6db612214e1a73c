// Package store is the pluggable persistence layer behind wfserve's
// async jobs and the engine's fingerprint-keyed solve results.
//
// A Store holds two kinds of durable state:
//
//   - Job records: the lifecycle of every /v1/jobs job — its original
//     request, status, progress counters and terminal results — written
//     on each transition. The record is the server's only copy of a
//     job, and a restarted process resumes the interrupted work it
//     finds. Pareto front points are appended one at a time as the
//     sweep proves them, so a crash loses at most the point in flight,
//     never the prefix.
//
//   - Solve results: instance.SolutionJSON documents keyed by the
//     engine's compact binary fingerprint (engine.Fingerprint). The
//     engine consults the store before running an expensive search and
//     writes every completed NP-hard result back, so a fleet sharing a
//     store never re-proves what a sibling (or a previous incarnation)
//     already solved. Polynomial results are deliberately not stored:
//     re-deriving them costs microseconds, less than the lookup.
//
// Two implementations ship today: MemStore (bounded in-memory maps, the
// default — behaviorally the pre-durability wfserve) and DiskStore (a
// single directory holding a snapshot plus an append-only NDJSON log,
// wfserve -store-dir). The interface is deliberately small and
// coarse-grained so network backends (Redis, S3) can slot in behind it
// without touching the server.
//
// The on-disk record format is versioned and documented in
// docs/wire-format.md ("Store files"); DecodeRecord is the strict
// decoder CI fuzzes (FuzzDecodeStoreRecord).
package store

import "encoding/json"

// Store persists jobs and fingerprint-keyed solve results. All methods
// are safe for concurrent use. Implementations must treat the
// json.RawMessage payloads as opaque: the server owns the job wire
// format, the engine owns the fingerprint.
type Store interface {
	// PutJob upserts a job record wholesale, replacing any previous
	// record (including its front) under the same ID. An error from an
	// open store means the write did not become durable; GetJob and
	// ListJobs still return the new record, since it is the server's
	// only copy of the job.
	PutJob(rec JobRecord) error
	// AppendFrontPoint appends one proven Pareto point to the job's
	// front. Appending to an unknown job is an error. Like PutJob, an
	// error from an open store for a known job still leaves the point
	// visible to GetJob and ListJobs.
	AppendFrontPoint(id string, point json.RawMessage) error
	// GetJob returns the stored record for id, with ok false when no
	// such job is stored.
	GetJob(id string) (rec JobRecord, ok bool, err error)
	// ListJobs returns every stored job record in creation order.
	ListJobs() ([]JobRecord, error)
	// DeleteJob removes a job record; deleting an unknown id is a no-op.
	DeleteJob(id string) error

	// PutResult stores a solve result under the engine fingerprint key.
	PutResult(key string, result json.RawMessage) error
	// GetResult returns the result stored under key, with ok false when
	// the key is unknown.
	GetResult(key string) (result json.RawMessage, ok bool, err error)

	// Stats reports the stored record counts (for /metrics).
	Stats() Stats
	// Close flushes and releases the store. Using a closed store is an
	// error.
	Close() error
}

// Stats is a point-in-time count of stored records.
type Stats struct {
	Jobs    int
	Results int
}

// JobRecord is the durable form of one async job. Payload fields
// (Request, Solution, Solutions, Front, Error) hold the server's wire
// JSON verbatim, so the store stays decoupled from the wire types and a
// record survives wire-format additions it does not understand.
type JobRecord struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// Client is the submitting tenant; recovery re-runs the job under
	// the same identity in the fair queue.
	Client string `json:"client,omitempty"`
	// Request is the original JobRequest body, re-runnable as submitted.
	Request json.RawMessage `json:"request,omitempty"`
	// CreatedMs and FinishedMs are unix-millisecond timestamps;
	// FinishedMs is zero on non-terminal records.
	CreatedMs  int64 `json:"createdMs"`
	FinishedMs int64 `json:"finishedMs,omitempty"`
	// Done and Total mirror the job's progress counters at the last
	// write-through.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Retired keeps the "lease" key of records written by earlier
	// versions decodable; nothing reads it.
	Retired json.RawMessage `json:"lease,omitempty"`

	Solution  json.RawMessage   `json:"solution,omitempty"`
	Solutions []json.RawMessage `json:"solutions,omitempty"`
	Front     []json.RawMessage `json:"front,omitempty"`
	Error     json.RawMessage   `json:"error,omitempty"`
}

// Terminal reports whether the record's status is a terminal one. The
// status strings are the server's job statuses; the store only needs to
// know which ones mean "no live owner expected".
func (r JobRecord) Terminal() bool {
	switch r.Status {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// clone returns a deep copy of the record so callers mutating a returned
// record (or the caller's input being reused) cannot corrupt the store.
func (r JobRecord) clone() JobRecord {
	c := r
	c.Request = cloneRaw(r.Request)
	c.Solution = cloneRaw(r.Solution)
	c.Error = cloneRaw(r.Error)
	if r.Solutions != nil {
		c.Solutions = make([]json.RawMessage, len(r.Solutions))
		for i, s := range r.Solutions {
			c.Solutions[i] = cloneRaw(s)
		}
	}
	if r.Front != nil {
		c.Front = make([]json.RawMessage, len(r.Front))
		for i, p := range r.Front {
			c.Front[i] = cloneRaw(p)
		}
	}
	return c
}

func cloneRaw(m json.RawMessage) json.RawMessage {
	if m == nil {
		return nil
	}
	return append(json.RawMessage(nil), m...)
}
