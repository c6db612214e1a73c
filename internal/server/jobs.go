package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/store"
)

// jobManager holds the live (queued or running) jobs behind /v1/jobs.
// Sweeps and large batches that would outlive any single HTTP deadline
// run as jobs: submitted with POST (202 + id), observed with GET (live
// progress, terminal results), cancelled with DELETE. The store holds
// every job's record — request, status, results — and is the only copy
// of it; the manager keeps just what the handlers share with a running
// job, and drops a job once its terminal record is written. A manager
// with MaxJobs live jobs rejects submissions, bounding queued work.
type jobManager struct {
	mu    sync.Mutex
	live  map[string]*job
	seq   uint64
	max   int
	total uint64
}

func newJobManager(max int) *jobManager {
	return &jobManager{live: make(map[string]*job), max: max}
}

// job is the handle of one live job.
type job struct {
	cancel context.CancelFunc

	mu        sync.Mutex
	requested bool // cancellation requested via DELETE
	// progress runs ahead of the stored record, which is written only
	// on status transitions.
	progress JobProgress
}

func (j *job) setProgress(p JobProgress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// add admits a new job under a fresh id. It fails when MaxJobs jobs are
// live.
func (m *jobManager) add(cancel context.CancelFunc) (string, *job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.live) >= m.max {
		return "", nil, fmt.Errorf("job limit reached: %d jobs live", len(m.live))
	}
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)
	return id, m.insertLocked(id, cancel), nil
}

// adopt readmits a recovered job under its stored id, whatever MaxJobs
// says: the job was admitted once, and the fair queue still bounds how
// many jobs run at once.
func (m *jobManager) adopt(id string, cancel context.CancelFunc) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insertLocked(id, cancel)
}

func (m *jobManager) insertLocked(id string, cancel context.CancelFunc) *job {
	m.total++
	j := &job{cancel: cancel}
	m.live[id] = j
	return j
}

// advanceSeq raises the id sequence to at least n, so ids minted after
// a recovery never collide with persisted jobs.
func (m *jobManager) advanceSeq(n uint64) {
	m.mu.Lock()
	if n > m.seq {
		m.seq = n
	}
	m.mu.Unlock()
}

// get returns the live job id, or nil when it is not live.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[id]
}

// snapshot returns the live jobs by id.
func (m *jobManager) snapshot() map[string]*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.live)
}

func (m *jobManager) remove(id string) {
	m.mu.Lock()
	delete(m.live, id)
	m.mu.Unlock()
}

// active counts queued and running jobs.
func (m *jobManager) active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// created returns the lifetime count of accepted jobs.
func (m *jobManager) created() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// handleJobCreate is POST /v1/jobs: validate and admit the job, start it
// on its own goroutine, and return 202 with the job id immediately.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	problems, err := jobProblems(req, s.maxBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindInvalidRequest, err.Error(), nil)
		return
	}

	// Jobs pay admission cost at submission — the client id recorded here
	// also keys the job's place in the fair queue.
	opts := s.solveOptions(req.BudgetMs, req.Parallelism)
	cost := batchCost(problems, opts)
	if req.Kind == "pareto" {
		sweep := problems[0]
		sweep.Objective = core.MinPeriod
		cost = paretoCostFactor * solveCost(sweep, opts)
	}
	if !s.admit(w, r, cost, nil) {
		return
	}

	// Jobs outlive the submitting request: their context derives from the
	// server's drain signal, not the HTTP request. The timeout is applied
	// in runJob once a solve slot is acquired — it bounds the job's run,
	// not its time in the queue. The handle exists before the record, so
	// a stored non-terminal record always has a live job behind it.
	ctx, cancel := context.WithCancel(s.baseCtx)
	id, j, err := s.jobs.add(cancel)
	if err != nil {
		cancel()
		writeError(w, http.StatusServiceUnavailable, ErrKindOverloaded, err.Error(), nil)
		return
	}
	reqRaw, _ := json.Marshal(req)
	rec := store.JobRecord{
		ID:        id,
		Kind:      req.Kind,
		Status:    JobStatusQueued,
		Client:    ClientID(r),
		Request:   reqRaw,
		CreatedMs: time.Now().UnixMilli(),
	}
	s.putJob(rec)
	resp := s.jobResponseFromRecord(rec, j)
	go s.runJob(ctx, j, rec, problems, opts, s.timeoutFor(req.TimeoutMs))
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, resp)
}

// runJob executes one admitted job to its terminal state. rec is the
// job's stored record; a recovered pareto job's record carries the
// front its previous run proved. The engine turns a solver's panic into
// an error; any other panic on the job's goroutine (an observer's, the
// store's) ends the job failed, kind internal, instead of the process.
func (s *Server) runJob(ctx context.Context, j *job, rec store.JobRecord, problems []core.Problem, opts core.Options, timeout time.Duration) {
	defer j.cancel()
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, rec, fmt.Errorf("job panic: %v", r))
		}
	}()
	// Jobs queue on the same weighted-fair slot pool as synchronous
	// requests, under the submitting client's identity, so a burst of
	// jobs cannot oversubscribe the engine or starve other tenants.
	// Queueing is bounded only by cancellation (DELETE) and server
	// drain — the run timeout starts once the slot is held.
	if err := s.acquire(ctx, rec.Client); err != nil {
		s.finishJob(j, rec, err)
		return
	}
	defer s.release()
	ctx, cancelRun := context.WithTimeout(ctx, timeout)
	defer cancelRun()
	rec.Status = JobStatusRunning
	s.putJob(rec)

	var err error
	switch rec.Kind {
	case "solve":
		j.setProgress(JobProgress{Total: 1})
		var sol core.Solution
		if sol, err = s.eng.Solve(ctx, problems[0], opts); err == nil {
			out := instance.FromSolution(sol)
			s.countAnytime(out)
			rec.Solution, _ = json.Marshal(out)
			j.setProgress(JobProgress{Done: 1, Total: 1})
		}
	case "batch":
		j.setProgress(JobProgress{Total: len(problems)})
		var sols []core.Solution
		if sols, err = s.eng.SolveBatch(ctx, problems, opts); err == nil {
			rec.Solutions = make([]json.RawMessage, len(sols))
			for i, sol := range sols {
				out := instance.FromSolution(sol)
				s.countAnytime(out)
				rec.Solutions[i], _ = json.Marshal(out)
			}
			j.setProgress(JobProgress{Done: len(sols), Total: len(sols)})
		}
	case "pareto":
		// A recovered job's front starts with the points its previous run
		// proved. The re-run sweep overwrites them in place as it
		// re-proves them, and only points beyond them are new to the
		// store, so the observable front never shrinks.
		front, next := rec.Front, 0
		var stats engine.SweepStats
		stats, err = s.eng.SweepFront(ctx, problems[0], opts, engine.SweepObserver{
			Point: func(p engine.SweepPoint) error {
				out := instance.FromSolution(p.Solution)
				s.countAnytime(out)
				raw, _ := json.Marshal(out)
				if next < len(front) {
					front[next] = raw
				} else {
					front = append(front, raw)
					s.persistPoint(rec.ID, raw)
				}
				next++
				j.setProgress(JobProgress{Done: p.Explored, Total: p.Total, Points: len(front)})
				return nil
			},
			Progress: func(explored, total int) {
				j.mu.Lock()
				j.progress.Done, j.progress.Total = explored, total
				j.mu.Unlock()
			},
		})
		// A deadline or cancellation keeps the partial front: the points
		// are final, the sweep just did not finish.
		j.setProgress(JobProgress{Done: stats.Explored, Total: stats.Total, Points: len(front)})
		rec.Front = front
	}
	s.finishJob(j, rec, err)
}

// finishJob writes the job's terminal record, results included, and
// then drops its handle. A job canceled by server drain (not by an
// explicit DELETE) is written back as queued instead, so the next
// process to open the store resumes it — a graceful restart loses no
// accepted work.
func (s *Server) finishJob(j *job, rec store.JobRecord, err error) {
	j.mu.Lock()
	rec.Done, rec.Total = j.progress.Done, j.progress.Total
	requested := j.requested
	j.mu.Unlock()
	var eb *ErrorBody
	switch {
	case err == nil:
		rec.Status = JobStatusDone
	case requested:
		rec.Status = JobStatusCanceled
		eb = &ErrorBody{Kind: ErrKindCanceled, Message: "job cancelled"}
	case s.closing() && errors.Is(err, context.Canceled):
		rec.Status = JobStatusQueued
		rec.Done, rec.Total = 0, 0
	case errors.Is(err, context.DeadlineExceeded):
		rec.Status = JobStatusFailed
		eb = &ErrorBody{Kind: ErrKindDeadlineExceeded, Message: err.Error()}
	case core.ErrKindOf(err) == core.ErrKindInvalidInstance:
		rec.Status = JobStatusFailed
		eb = &ErrorBody{Kind: ErrKindInvalidRequest, Message: err.Error()}
	default:
		rec.Status = JobStatusFailed
		eb = &ErrorBody{Kind: ErrKindInternal, Message: err.Error()}
	}
	if rec.Terminal() {
		rec.FinishedMs = time.Now().UnixMilli()
	}
	if eb != nil {
		rec.Error, _ = json.Marshal(eb)
	}
	s.putJob(rec)
	s.jobs.remove(rec.ID)
}

// jobResponseFromRecord renders a stored job record in its wire form;
// every /v1/jobs view goes through it. j is the job's live handle (nil
// when not live), looked up before the record was read: a job is
// dropped only after its terminal record is written, so a record read
// after a miss is final. A live job's progress counters are laid over
// the record's. A non-terminal record without a live job on a draining
// server is a job the drain interrupted: it is stored as queued so the
// next process resumes it, and shown as canceled by the shutdown.
// Undecodable payload fields are dropped rather than failing the read.
func (s *Server) jobResponseFromRecord(rec store.JobRecord, j *job) JobResponse {
	end := time.Now()
	if rec.FinishedMs > 0 {
		end = time.UnixMilli(rec.FinishedMs)
	}
	jr := JobResponse{
		ID:        rec.ID,
		Kind:      rec.Kind,
		Status:    rec.Status,
		ElapsedMs: float64(end.Sub(time.UnixMilli(rec.CreatedMs))) / float64(time.Millisecond),
		Progress:  JobProgress{Done: rec.Done, Total: rec.Total},
	}
	if rec.Solution != nil {
		var sol instance.SolutionJSON
		if json.Unmarshal(rec.Solution, &sol) == nil {
			jr.Solution = &sol
		}
	}
	for _, raw := range rec.Solutions {
		var sol instance.SolutionJSON
		if json.Unmarshal(raw, &sol) == nil {
			jr.Solutions = append(jr.Solutions, sol)
		}
	}
	for _, raw := range rec.Front {
		var sol instance.SolutionJSON
		if json.Unmarshal(raw, &sol) == nil {
			jr.Front = append(jr.Front, sol)
		}
	}
	if len(jr.Front) > 0 {
		jr.Progress.Points = len(jr.Front)
	}
	if rec.Error != nil {
		var eb ErrorBody
		if json.Unmarshal(rec.Error, &eb) == nil {
			jr.Error = &eb
		}
	}
	if j != nil {
		j.mu.Lock()
		jr.Progress = j.progress
		j.mu.Unlock()
	} else if !rec.Terminal() && s.closing() {
		jr.Status = JobStatusCanceled
		jr.Error = &ErrorBody{Kind: ErrKindShuttingDown, Message: "server shutting down"}
	}
	return jr
}

// storedJob reads the record of job id, writing the error response
// itself when there is none.
func (s *Server) storedJob(w http.ResponseWriter, id string) (store.JobRecord, bool) {
	rec, ok, err := s.store.GetJob(id)
	switch {
	case err != nil:
		s.storeErrors.Add(1)
		writeError(w, http.StatusInternalServerError, ErrKindInternal, "reading job store: "+err.Error(), nil)
	case !ok:
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Sprintf("no job %q", id), nil)
	}
	return rec, err == nil && ok
}

// handleJobGet is GET /v1/jobs/{id}: the job's live progress or terminal
// results.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if rec, ok := s.storedJob(w, id); ok {
		writeJSON(w, http.StatusOK, s.jobResponseFromRecord(rec, j))
	}
}

// handleJobDelete is DELETE /v1/jobs/{id}: cancel a live job (it turns
// canceled once its goroutine observes the cancellation; poll GET for
// the terminal record) or discard a finished one.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	rec, ok := s.storedJob(w, id)
	if !ok {
		return
	}
	if j != nil {
		j.mu.Lock()
		j.requested = true
		j.mu.Unlock()
		j.cancel()
		writeJSON(w, http.StatusAccepted, s.jobResponseFromRecord(rec, j))
		return
	}
	if err := s.store.DeleteJob(id); err != nil {
		s.storeErrors.Add(1)
	}
	writeJSON(w, http.StatusOK, s.jobResponseFromRecord(rec, nil))
}

// handleJobList is GET /v1/jobs: every stored job, in creation order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	live := s.jobs.snapshot()
	recs, err := s.store.ListJobs()
	if err != nil {
		s.storeErrors.Add(1)
		writeError(w, http.StatusInternalServerError, ErrKindInternal, "reading job store: "+err.Error(), nil)
		return
	}
	jobs := make([]JobResponse, len(recs))
	for i, rec := range recs {
		jobs[i] = s.jobResponseFromRecord(rec, live[rec.ID])
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: jobs})
}
