package store

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Bounds of the in-memory store. MemStore is the default Store of a
// wfserve without -store-dir, and the only record of its jobs: memory
// stays bounded, and a process restart loses everything.
const (
	memMaxJobs    = 1024
	memMaxResults = 8192
)

// MemStore is the bounded in-memory Store. Construct with Mem.
type MemStore struct {
	mu      sync.Mutex
	closed  bool
	jobs    map[string]JobRecord
	order   []string // creation order, for listing and eviction
	results map[string]json.RawMessage
	resOrd  []string // insertion order, for eviction
}

// Mem returns an empty in-memory store.
func Mem() *MemStore {
	return &MemStore{
		jobs:    make(map[string]JobRecord),
		results: make(map[string]json.RawMessage),
	}
}

var errClosed = fmt.Errorf("store: closed")

// PutJob implements Store. When the job bound is reached the oldest
// terminal record is evicted. A live record is never evicted — it is
// its job's only copy — so a store full of live records grows past the
// bound; the server's MaxJobs bounds how far.
func (m *MemStore) PutJob(rec JobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if _, ok := m.jobs[rec.ID]; !ok {
		if len(m.jobs) >= memMaxJobs {
			m.evictJobLocked()
		}
		m.order = append(m.order, rec.ID)
	}
	m.jobs[rec.ID] = rec.clone()
	return nil
}

// evictJobLocked drops the oldest terminal job, if there is one.
func (m *MemStore) evictJobLocked() {
	for i, id := range m.order {
		if m.jobs[id].Terminal() {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// AppendFrontPoint implements Store.
func (m *MemStore) AppendFrontPoint(id string, point json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	rec, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("store: appending point to unknown job %q", id)
	}
	rec.Front = append(rec.Front, cloneRaw(point))
	m.jobs[id] = rec
	return nil
}

// GetJob implements Store.
func (m *MemStore) GetJob(id string) (JobRecord, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobRecord{}, false, errClosed
	}
	rec, ok := m.jobs[id]
	if !ok {
		return JobRecord{}, false, nil
	}
	return rec.clone(), true, nil
}

// ListJobs implements Store.
func (m *MemStore) ListJobs() ([]JobRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	out := make([]JobRecord, 0, len(m.jobs))
	for _, id := range m.order {
		if rec, ok := m.jobs[id]; ok {
			out = append(out, rec.clone())
		}
	}
	return out, nil
}

// DeleteJob implements Store.
func (m *MemStore) DeleteJob(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if _, ok := m.jobs[id]; !ok {
		return nil
	}
	delete(m.jobs, id)
	for i, jid := range m.order {
		if jid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// PutResult implements Store. At the bound the oldest inserted result is
// evicted (plain FIFO: the engine's own cache handles recency, the store
// is the second-level safety net).
func (m *MemStore) PutResult(key string, result json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if _, ok := m.results[key]; !ok {
		if len(m.results) >= memMaxResults {
			delete(m.results, m.resOrd[0])
			m.resOrd = m.resOrd[1:]
		}
		m.resOrd = append(m.resOrd, key)
	}
	m.results[key] = cloneRaw(result)
	return nil
}

// GetResult implements Store.
func (m *MemStore) GetResult(key string) (json.RawMessage, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, errClosed
	}
	res, ok := m.results[key]
	if !ok {
		return nil, false, nil
	}
	return cloneRaw(res), true, nil
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Jobs: len(m.jobs), Results: len(m.results)}
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
