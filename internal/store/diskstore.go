package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// storeFile is the single data file of a DiskStore directory.
const storeFile = "store.ndjson"

// compactEvery bounds log growth: after this many appended records the
// log is rewritten to one record per live job/result (plus the header).
const compactEvery = 4096

// DiskStore is the local-disk Store behind wfserve -store-dir: one
// directory holding a single append-only NDJSON log (store.ndjson) of
// versioned records, periodically compacted in place via an atomic
// tmp-file rename. Every mutation appends one line; the full state is
// rebuilt by replaying the log on Open.
//
// Crash safety: appends are single write(2) calls of whole lines, so a
// process killed mid-write leaves at most one torn final line, which
// Open detects (strict per-line decoding) and truncates away — every
// record before it stands. Compaction replaces the file only after the
// replacement is fsynced, so a crash mid-compaction leaves either the
// old or the new file, never a mix. The log is not fsynced per append:
// a kill -9 loses nothing (the page cache survives the process), only a
// whole-machine crash can lose the most recent appends.
//
// A DiskStore assumes a single writing process at a time: the process
// that opens a directory owns every record in it, and a restarted one
// takes over the unfinished work of the process before it.
//
// A failed append leaves the in-memory index updated (see Store.PutJob):
// the process keeps serving the record, and only its durability is lost.
type DiskStore struct {
	mu     sync.Mutex
	closed bool
	path   string
	log    *os.File
	// appended counts records written since the last compaction.
	appended int

	jobs    map[string]JobRecord
	order   []string
	results map[string]json.RawMessage
	resOrd  []string
}

// headerLine is the first line of every store file: a format marker
// ("wfstore/v1") that identifies the file before any record is decoded.
var headerLine = []byte(`"wfstore/v1"` + "\n")

// OpenDisk opens (creating if necessary) the store directory and
// replays its log. A torn final line — the mark of a process killed
// mid-append — is dropped and truncated away; corruption anywhere else
// is an error, since silently skipping committed records would resurrect
// work the dead process had already completed differently.
func OpenDisk(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	d := &DiskStore{
		path:    filepath.Join(dir, storeFile),
		jobs:    make(map[string]JobRecord),
		results: make(map[string]json.RawMessage),
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	// Compact on open: the rewritten log starts at one record per live
	// entry, and the replayed (possibly truncated) tail is made durable.
	if err := d.compactLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// replay loads the log into the in-memory index, truncating a torn tail.
func (d *DiskStore) replay() error {
	data, err := os.ReadFile(d.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", d.path, err)
	}
	offset := 0
	for lineNo := 1; offset < len(data); lineNo++ {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			// No terminator: the final append was torn mid-line. Drop it.
			break
		}
		line := data[offset : offset+nl]
		if lineNo == 1 {
			if !bytes.Equal(line, bytes.TrimSuffix(headerLine, []byte("\n"))) {
				return fmt.Errorf("store: %s: missing wfstore/v1 header", d.path)
			}
			offset += nl + 1
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			if offset+nl+1 == len(data) {
				// The final line is complete but undecodable: a torn write
				// that happened to include the newline. Drop it too.
				break
			}
			return fmt.Errorf("store: %s line %d: %w", d.path, lineNo, err)
		}
		if err := d.apply(rec); err != nil {
			return fmt.Errorf("store: %s line %d: %w", d.path, lineNo, err)
		}
		offset += nl + 1
	}
	return nil
}

// apply folds one record into the in-memory index.
func (d *DiskStore) apply(rec Record) error {
	switch rec.Type {
	case RecordJob:
		job := *rec.Job
		if _, ok := d.jobs[job.ID]; !ok {
			d.order = append(d.order, job.ID)
		}
		d.jobs[job.ID] = job
	case RecordPoint:
		job, ok := d.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("point for unknown job %q", rec.ID)
		}
		job.Front = append(job.Front, rec.Point)
		d.jobs[rec.ID] = job
	case RecordJobDelete:
		if _, ok := d.jobs[rec.ID]; ok {
			delete(d.jobs, rec.ID)
			for i, id := range d.order {
				if id == rec.ID {
					d.order = append(d.order[:i], d.order[i+1:]...)
					break
				}
			}
		}
	case RecordResult:
		key, err := DecodeKey(rec.Key)
		if err != nil {
			return err
		}
		if _, ok := d.results[key]; !ok {
			d.resOrd = append(d.resOrd, key)
		}
		d.results[key] = rec.Result
	}
	return nil
}

// compactLocked rewrites the log to the current state — header, one job
// record per job in creation order, one result record per key in
// insertion order — fsyncs it, atomically renames it into place and
// reopens the append handle. Callers hold mu (or own the store
// exclusively, as Open does).
func (d *DiskStore) compactLocked() error {
	tmp := d.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	w := bytes.NewBuffer(nil)
	w.Write(headerLine)
	for _, id := range d.order {
		job := d.jobs[id]
		line, err := EncodeRecord(Record{V: RecordVersion, Type: RecordJob, Job: &job})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
	}
	for _, key := range d.resOrd {
		line, err := EncodeRecord(Record{V: RecordVersion, Type: RecordResult, Key: EncodeKey(key), Result: d.results[key]})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
	}
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("store: compacting: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	if d.log != nil {
		d.log.Close() //nolint:errcheck // replaced below
	}
	d.log, err = os.OpenFile(d.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening log: %w", err)
	}
	d.appended = 0
	return nil
}

// appendLocked writes one record to the log, compacting when due.
func (d *DiskStore) appendLocked(rec Record) error {
	line, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := d.log.Write(line); err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	d.appended++
	if d.appended >= compactEvery {
		return d.compactLocked()
	}
	return nil
}

// PutJob implements Store.
func (d *DiskStore) PutJob(rec JobRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	rec = rec.clone()
	if _, ok := d.jobs[rec.ID]; !ok {
		d.order = append(d.order, rec.ID)
	}
	d.jobs[rec.ID] = rec
	return d.appendLocked(Record{V: RecordVersion, Type: RecordJob, Job: &rec})
}

// AppendFrontPoint implements Store.
func (d *DiskStore) AppendFrontPoint(id string, point json.RawMessage) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	job, ok := d.jobs[id]
	if !ok {
		return fmt.Errorf("store: appending point to unknown job %q", id)
	}
	point = cloneRaw(point)
	job.Front = append(job.Front, point)
	d.jobs[id] = job
	return d.appendLocked(Record{V: RecordVersion, Type: RecordPoint, ID: id, Point: point})
}

// GetJob implements Store.
func (d *DiskStore) GetJob(id string) (JobRecord, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return JobRecord{}, false, errClosed
	}
	rec, ok := d.jobs[id]
	if !ok {
		return JobRecord{}, false, nil
	}
	return rec.clone(), true, nil
}

// ListJobs implements Store.
func (d *DiskStore) ListJobs() ([]JobRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errClosed
	}
	out := make([]JobRecord, 0, len(d.jobs))
	for _, id := range d.order {
		if rec, ok := d.jobs[id]; ok {
			out = append(out, rec.clone())
		}
	}
	return out, nil
}

// DeleteJob implements Store.
func (d *DiskStore) DeleteJob(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if _, ok := d.jobs[id]; !ok {
		return nil
	}
	delete(d.jobs, id)
	for i, jid := range d.order {
		if jid == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return d.appendLocked(Record{V: RecordVersion, Type: RecordJobDelete, ID: id})
}

// PutResult implements Store.
func (d *DiskStore) PutResult(key string, result json.RawMessage) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	result = cloneRaw(result)
	if _, ok := d.results[key]; !ok {
		d.resOrd = append(d.resOrd, key)
	}
	d.results[key] = result
	return d.appendLocked(Record{V: RecordVersion, Type: RecordResult, Key: EncodeKey(key), Result: result})
}

// GetResult implements Store.
func (d *DiskStore) GetResult(key string) (json.RawMessage, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, errClosed
	}
	res, ok := d.results[key]
	if !ok {
		return nil, false, nil
	}
	return cloneRaw(res), true, nil
}

// Stats implements Store.
func (d *DiskStore) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Jobs: len(d.jobs), Results: len(d.results)}
}

// Close implements Store: the log is compacted (which fsyncs) and
// released.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.compactLocked()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}
