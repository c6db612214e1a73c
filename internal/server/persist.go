package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/store"
)

// This file is the server's persistence layer: every job state
// transition is written to the configured store.Store, the only record
// of a job (jobs.go calls putJob / persistPoint), and at startup
// recoverJobs re-runs the work a previous process left unfinished, with
// a pareto job's already-proven front preloaded so progress never moves
// backwards across a crash. The engine's second-level solution cache
// (engine.ResultStore) is adapted onto the same store.
//
// A store write that fails is counted in wfserve_store_errors_total and
// never fails a request: the Store contract keeps a failed write
// visible to reads, so only its durability is lost.

// resultStore adapts the server's store.Store to engine.ResultStore:
// solutions travel as instance.SolutionJSON documents — the same
// lossless wire form the HTTP API serves — keyed by the engine
// fingerprint.
type resultStore struct{ s *Server }

// Load implements engine.ResultStore.
func (rs resultStore) Load(key string) (core.Solution, bool) {
	raw, ok, err := rs.s.store.GetResult(key)
	if err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	if !ok {
		rs.s.storeResultMisses.Add(1)
		return core.Solution{}, false
	}
	var sj instance.SolutionJSON
	if err := instance.DecodeStrict(bytes.NewReader(raw), &sj); err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	sol, err := sj.Solution()
	if err != nil {
		rs.s.storeErrors.Add(1)
		return core.Solution{}, false
	}
	rs.s.storeResultHits.Add(1)
	return sol, true
}

// Store implements engine.ResultStore.
func (rs resultStore) Store(key string, sol core.Solution) {
	raw, err := json.Marshal(instance.FromSolution(sol))
	if err != nil {
		rs.s.storeErrors.Add(1)
		return
	}
	if err := rs.s.store.PutResult(key, raw); err != nil {
		rs.s.storeErrors.Add(1)
		return
	}
	rs.s.storeWrites.Add(1)
}

// putJob writes a job record through to the store.
func (s *Server) putJob(rec store.JobRecord) {
	if err := s.store.PutJob(rec); err != nil {
		s.storeErrors.Add(1)
		return
	}
	s.storeWrites.Add(1)
}

// persistPoint appends one proven front point to the job's stored
// record (cheaper than rewriting the whole record per point).
func (s *Server) persistPoint(id string, point json.RawMessage) {
	if err := s.store.AppendFrontPoint(id, point); err != nil {
		s.storeErrors.Add(1)
		return
	}
	s.storeWrites.Add(1)
}

// jobSeq extracts the numeric suffix of a "job-N" id, 0 otherwise.
func jobSeq(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil || !strings.HasPrefix(id, "job-") {
		return 0
	}
	return n
}

// recoverJobs re-runs every non-terminal record in the store; New calls
// it once. Opening a store asserts exclusive ownership (a DiskStore has
// a single writer, a MemStore is private to its process), so such a
// record is work a previous process left unfinished. The job id
// sequence is advanced past every stored id, so new submissions never
// collide with recovered ones.
func (s *Server) recoverJobs() {
	recs, err := s.store.ListJobs()
	if err != nil {
		s.storeErrors.Add(1)
		return
	}
	for _, rec := range recs {
		s.jobs.advanceSeq(jobSeq(rec.ID))
		if !rec.Terminal() {
			s.resumeJob(rec)
		}
	}
}

// resumeJob re-runs one stored non-terminal job under this process.
// The original request is re-validated exactly as on submission; a
// record whose request no longer parses is marked failed in the store
// rather than retried forever.
func (s *Server) resumeJob(rec store.JobRecord) {
	rec.Retired = nil // rewritten without the key
	var req JobRequest
	err := instance.DecodeStrict(bytes.NewReader(rec.Request), &req)
	var problems []core.Problem
	if err == nil {
		problems, err = jobProblems(req, s.maxBatch)
	}
	if err != nil {
		rec.Status = JobStatusFailed
		rec.FinishedMs = time.Now().UnixMilli()
		rec.Error, _ = json.Marshal(&ErrorBody{Kind: ErrKindInternal, Message: "recovering job: " + err.Error()})
		s.putJob(rec)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := s.jobs.adopt(rec.ID, cancel)
	j.setProgress(JobProgress{Done: rec.Done, Total: rec.Total, Points: len(rec.Front)})
	rec.Status = JobStatusQueued
	s.putJob(rec)
	s.storeRecovered.Add(1)
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	go s.runJob(ctx, j, rec, problems, opts, s.timeoutFor(req.TimeoutMs))
}

// jobProblems validates a job request into its solve problems — shared
// by submission (handleJobCreate) and crash recovery (resumeJob), so a
// recovered request passes exactly the checks it passed when accepted.
func jobProblems(req JobRequest, maxBatch int) ([]core.Problem, error) {
	switch req.Kind {
	case "solve", "pareto":
		if req.Instance == nil || len(req.Instances) > 0 {
			return nil, fmt.Errorf("a %q job takes exactly the instance field", req.Kind)
		}
		ins := *req.Instance
		if req.Kind == "pareto" && ins.Objective == "" {
			ins.Objective = "min-period" // the sweep ignores it
		}
		pr, err := ins.Problem()
		if err != nil {
			return nil, err
		}
		return []core.Problem{pr}, nil
	case "batch":
		if req.Instance != nil || len(req.Instances) == 0 {
			return nil, fmt.Errorf(`a "batch" job takes a non-empty instances field`)
		}
		if len(req.Instances) > maxBatch {
			return nil, fmt.Errorf("batch of %d instances exceeds the limit of %d", len(req.Instances), maxBatch)
		}
		problems := make([]core.Problem, len(req.Instances))
		for i, ins := range req.Instances {
			pr, err := ins.Problem()
			if err != nil {
				return nil, fmt.Errorf("instances[%d]: %v", i, err)
			}
			problems[i] = pr
		}
		return problems, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want solve, batch or pareto)", req.Kind)
	}
}

var _ = engine.ResultStore(resultStore{})
