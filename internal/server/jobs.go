package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/store"
)

// jobManager is the bounded in-memory store behind /v1/jobs. Sweeps and
// large batches that would outlive any single HTTP deadline run as jobs:
// submitted with POST (202 + id), observed with GET (live progress,
// terminal results), cancelled with DELETE. When the store is full the
// oldest finished job is evicted to admit a new one; a store full of
// live jobs rejects submissions, bounding both memory and queued work.
type jobManager struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // creation order, for eviction
	seq   uint64
	max   int
	total uint64
}

func newJobManager(max int) *jobManager {
	return &jobManager{jobs: make(map[string]*job), max: max}
}

// job is one asynchronous request and its lifecycle state.
type job struct {
	id      string
	kind    string
	client  string
	reqRaw  json.RawMessage // the original JobRequest, persisted for crash recovery
	cancel  context.CancelFunc
	started time.Time

	mu        sync.Mutex
	status    string
	finished  time.Time
	progress  JobProgress
	solution  *instance.SolutionJSON
	solutions []instance.SolutionJSON
	front     []instance.SolutionJSON
	// nextPoint indexes the next sweep point of this run. On a recovered
	// pareto job the front is preloaded from the store, and the re-run
	// sweep overwrites those points in place (nextPoint < len(front))
	// before appending new ones — so the observable front never shrinks.
	nextPoint int
	err       *ErrorBody
	requested bool // cancellation requested via DELETE
}

// terminal reports whether the job has finished (in any way).
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

func (j *job) terminalLocked() bool {
	return j.status == JobStatusDone || j.status == JobStatusFailed || j.status == JobStatusCanceled
}

// snapshot renders the job's wire form. The front is copied under the
// lock: a resumed Pareto job rewrites its preloaded points in place
// while the snapshot is encoded.
func (j *job) snapshot() JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := time.Now()
	if j.terminalLocked() {
		end = j.finished
	}
	return JobResponse{
		ID:        j.id,
		Kind:      j.kind,
		Status:    j.status,
		ElapsedMs: float64(end.Sub(j.started)) / float64(time.Millisecond),
		Progress:  j.progress,
		Solution:  j.solution,
		Solutions: j.solutions,
		Front:     slices.Clone(j.front),
		Error:     j.err,
	}
}

// evictTerminalLocked drops the oldest finished job to make room,
// reporting whether one existed. Eviction removes the job from memory
// only — its persisted record stays in the store, so GET /v1/jobs/{id}
// still answers for it (rehydration).
func (m *jobManager) evictTerminalLocked() bool {
	for i, id := range m.order {
		if j := m.jobs[id]; j != nil && j.terminal() {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return true
		}
	}
	return false
}

// add admits a new job, evicting the oldest finished job when the store
// is at capacity. It fails when every stored job is still live.
func (m *jobManager) add(kind, client string, reqRaw json.RawMessage, cancel context.CancelFunc) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) >= m.max && !m.evictTerminalLocked() {
		return nil, fmt.Errorf("job store full: %d jobs live", len(m.jobs))
	}
	m.seq++
	m.total++
	j := &job{
		id:      fmt.Sprintf("job-%d", m.seq),
		kind:    kind,
		client:  client,
		reqRaw:  reqRaw,
		cancel:  cancel,
		started: time.Now(),
		status:  JobStatusQueued,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j, nil
}

// adopt readmits a persisted job under its original id (crash
// recovery). It refuses when the id is already live here or the manager
// is full of live jobs.
func (m *jobManager) adopt(rec store.JobRecord, cancel context.CancelFunc) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[rec.ID]; ok {
		return nil, false
	}
	if len(m.jobs) >= m.max && !m.evictTerminalLocked() {
		return nil, false
	}
	m.total++
	j := &job{
		id:      rec.ID,
		kind:    rec.Kind,
		client:  rec.Client,
		reqRaw:  rec.Request,
		cancel:  cancel,
		started: time.UnixMilli(rec.CreatedMs),
		status:  JobStatusQueued,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j, true
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

// live returns the non-terminal jobs in creation order (for lease
// renewal).
func (m *jobManager) live() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*job
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil && !j.terminal() {
			out = append(out, j)
		}
	}
	return out
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// remove deletes a job from the store (terminal jobs only; the caller
// checks).
func (m *jobManager) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, jid := range m.order {
		if jid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// list snapshots every stored job in creation order.
func (m *jobManager) list() []JobResponse {
	m.mu.Lock()
	ordered := make([]*job, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			ordered = append(ordered, j)
		}
	}
	m.mu.Unlock()
	out := make([]JobResponse, len(ordered))
	for i, j := range ordered {
		out[i] = j.snapshot()
	}
	return out
}

// active counts queued and running jobs.
func (m *jobManager) active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if !j.terminal() {
			n++
		}
	}
	return n
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
	// not its time in the queue.
	ctx, cancel := context.WithCancel(s.baseCtx)
	reqRaw, _ := json.Marshal(req)
	j, err := s.jobs.add(req.Kind, ClientID(r), reqRaw, cancel)
	if err != nil {
		cancel()
		writeError(w, http.StatusServiceUnavailable, ErrKindOverloaded, err.Error(), nil)
		return
	}
	s.persistJob(j)
	go s.runJob(ctx, cancel, j, problems, opts, s.timeoutFor(req.TimeoutMs), ClientID(r))
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// runJob executes one admitted job to its terminal state.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, problems []core.Problem, opts core.Options, timeout time.Duration, client string) {
	defer cancel()
	// Jobs queue on the same weighted-fair slot pool as synchronous
	// requests, under the submitting client's identity, so a burst of
	// jobs cannot oversubscribe the engine or starve other tenants.
	// Queueing is bounded only by cancellation (DELETE) and server
	// drain — the run timeout starts once the slot is held.
	if err := s.acquire(ctx, client); err != nil {
		s.finishJob(j, err)
		return
	}
	defer s.release()
	ctx, cancelRun := context.WithTimeout(ctx, timeout)
	defer cancelRun()
	j.mu.Lock()
	j.status = JobStatusRunning
	j.mu.Unlock()
	s.persistJob(j)

	switch j.kind {
	case "solve":
		j.mu.Lock()
		j.progress = JobProgress{Total: 1}
		j.mu.Unlock()
		sol, err := s.eng.Solve(ctx, problems[0], opts)
		if err == nil {
			out := instance.FromSolution(sol)
			s.countAnytime(out)
			j.mu.Lock()
			j.solution = &out
			j.progress.Done = 1
			j.mu.Unlock()
		}
		s.finishJob(j, err)
	case "batch":
		j.mu.Lock()
		j.progress = JobProgress{Total: len(problems)}
		j.mu.Unlock()
		sols, err := s.eng.SolveBatch(ctx, problems, opts)
		if err == nil {
			out := make([]instance.SolutionJSON, len(sols))
			for i, sol := range sols {
				out[i] = instance.FromSolution(sol)
			}
			s.countAnytime(out...)
			j.mu.Lock()
			j.solutions = out
			j.progress.Done = len(out)
			j.mu.Unlock()
		}
		s.finishJob(j, err)
	case "pareto":
		stats, err := s.eng.SweepFront(ctx, problems[0], opts, engine.SweepObserver{
			Point: func(p engine.SweepPoint) error {
				out := instance.FromSolution(p.Solution)
				s.countAnytime(out)
				j.mu.Lock()
				// A recovered job re-proves its preloaded prefix in place;
				// only points beyond it are new to the store (their prefix
				// twins were appended by the previous incarnation).
				fresh := j.nextPoint >= len(j.front)
				if fresh {
					j.front = append(j.front, out)
				} else {
					j.front[j.nextPoint] = out
				}
				j.nextPoint++
				j.progress = JobProgress{Done: p.Explored, Total: p.Total, Points: len(j.front)}
				j.mu.Unlock()
				if fresh {
					s.persistPoint(j.id, out)
				}
				return nil
			},
			Progress: func(explored, total int) {
				j.mu.Lock()
				j.progress.Done, j.progress.Total = explored, total
				j.mu.Unlock()
			},
		})
		// The observer only sees progress up to the last solve round; the
		// returned stats also cover trailing pruning.
		j.mu.Lock()
		j.progress = JobProgress{Done: stats.Explored, Total: stats.Total, Points: stats.Points}
		j.mu.Unlock()
		// A deadline or cancellation keeps the partial front: the points
		// are final, the sweep just did not finish.
		s.finishJob(j, err)
	}
}

// finishJob records the terminal state of a job and writes it through
// to the store (a drain-canceled job is persisted as re-queueable; see
// jobRecord).
func (s *Server) finishJob(j *job, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = JobStatusDone
	case j.requested:
		j.status = JobStatusCanceled
		j.err = &ErrorBody{Kind: ErrKindCanceled, Message: "job cancelled"}
	case s.closing() && errors.Is(err, context.Canceled):
		j.status = JobStatusCanceled
		j.err = &ErrorBody{Kind: ErrKindShuttingDown, Message: "server shutting down"}
	case errors.Is(err, context.DeadlineExceeded):
		j.status = JobStatusFailed
		j.err = &ErrorBody{Kind: ErrKindDeadlineExceeded, Message: err.Error()}
	case core.ErrKindOf(err) == core.ErrKindInvalidInstance:
		j.status = JobStatusFailed
		j.err = &ErrorBody{Kind: ErrKindInvalidRequest, Message: err.Error()}
	default:
		j.status = JobStatusFailed
		j.err = &ErrorBody{Kind: ErrKindInternal, Message: err.Error()}
	}
	j.mu.Unlock()
	s.persistJob(j)
}

// handleJobGet is GET /v1/jobs/{id}: the job's live progress or terminal
// results. A job evicted from memory but still persisted is rehydrated
// from the store instead of 404ing — eviction bounds memory, it does
// not forget finished work.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		if rec, found, err := s.store.GetJob(id); err == nil && found {
			writeJSON(w, http.StatusOK, jobResponseFromRecord(rec))
			return
		}
		writeError(w, http.StatusNotFound, ErrKindNotFound,
			fmt.Sprintf("no job %q", id), nil)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobDelete is DELETE /v1/jobs/{id}: cancel a live job (it turns
// canceled once its goroutine observes the cancellation; poll GET for
// the terminal snapshot) or discard a finished one.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		// Evicted but persisted: an explicit DELETE removes the stored
		// record too — unlike eviction, this is the client forgetting the
		// job on purpose.
		if rec, found, err := s.store.GetJob(id); err == nil && found && rec.Terminal() {
			if err := s.store.DeleteJob(id); err != nil {
				s.storeErrors.Add(1)
			}
			writeJSON(w, http.StatusOK, jobResponseFromRecord(rec))
			return
		}
		writeError(w, http.StatusNotFound, ErrKindNotFound,
			fmt.Sprintf("no job %q", id), nil)
		return
	}
	if j.terminal() {
		s.jobs.remove(j.id)
		if err := s.store.DeleteJob(j.id); err != nil {
			s.storeErrors.Add(1)
		}
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	j.mu.Lock()
	j.requested = true
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// handleJobList is GET /v1/jobs: every stored job, in creation order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.list()})
}
