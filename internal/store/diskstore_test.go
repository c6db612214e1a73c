package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reopen closes the store (when non-nil) and opens the directory again.
func reopen(t *testing.T, d *DiskStore, dir string) *DiskStore {
	t.Helper()
	if d != nil {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nd, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestDiskStorePersistence: everything written — job upserts, appended
// front points, results, deletions — survives Close and reopen.
func TestDiskStorePersistence(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutJob(rec("job-1", "running")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutJob(rec("job-2", "queued")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendFrontPoint("job-1", json.RawMessage(`{"period":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendFrontPoint("job-1", json.RawMessage(`{"period":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteJob("job-2"); err != nil {
		t.Fatal(err)
	}
	if err := d.PutResult("fp-1", json.RawMessage(`{"latency":9}`)); err != nil {
		t.Fatal(err)
	}

	d = reopen(t, d, dir)
	defer d.Close()
	job, ok, err := d.GetJob("job-1")
	if err != nil || !ok {
		t.Fatalf("job-1 after reopen: ok=%v err=%v", ok, err)
	}
	if len(job.Front) != 2 || string(job.Front[0]) != `{"period":1}` || string(job.Front[1]) != `{"period":2}` {
		t.Fatalf("front after reopen = %v", job.Front)
	}
	if _, ok, _ := d.GetJob("job-2"); ok {
		t.Error("deleted job resurrected by reopen")
	}
	res, ok, err := d.GetResult("fp-1")
	if err != nil || !ok || string(res) != `{"latency":9}` {
		t.Fatalf("result after reopen = %s, %v, %v", res, ok, err)
	}
	if st := d.Stats(); st.Jobs != 1 || st.Results != 1 {
		t.Errorf("stats after reopen = %+v", st)
	}
}

// corrupt appends raw bytes to the store file (simulating a torn write
// by a killed process).
func corrupt(t *testing.T, dir string, tail string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreTornTailRecovery: a final line cut mid-write — with or
// without its newline — is dropped on open; every record before it
// stands.
func TestDiskStoreTornTailRecovery(t *testing.T) {
	tails := map[string]string{
		"unterminated line":      `{"v":1,"type":"job","job":{"id":"jo`,
		"terminated garbage":     "{\"v\":1,\"type\":\"job\",\"jo\n",
		"binary garbage":         "\x00\x01\x02partial",
		"valid json wrong shape": "{\"v\":1}\n",
		"half of a point record": `{"v":1,"type":"point","id":"job-1","point":{"per`,
		"empty object line":      "{}\n",
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.PutJob(rec("job-1", "running")); err != nil {
				t.Fatal(err)
			}
			if err := d.AppendFrontPoint("job-1", json.RawMessage(`{"period":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := d.PutResult("fp", json.RawMessage(`{"p":1}`)); err != nil {
				t.Fatal(err)
			}
			// Close without compaction-by-Close would be ideal, but Close
			// compacts; corrupt after it so the torn tail is the last line.
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, tail)

			nd, err := OpenDisk(dir)
			if err != nil {
				t.Fatalf("open after torn tail: %v", err)
			}
			defer nd.Close()
			job, ok, err := nd.GetJob("job-1")
			if err != nil || !ok || len(job.Front) != 1 {
				t.Fatalf("prefix lost: job=%+v ok=%v err=%v", job, ok, err)
			}
			if _, ok, _ := nd.GetResult("fp"); !ok {
				t.Error("prefix result lost")
			}
		})
	}
}

// TestDiskStoreMidFileCorruptionFails: damage before the tail is not
// silently skipped — committed state must never be partially dropped.
func TestDiskStoreMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutJob(rec("job-1", "running")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	corrupt(t, dir, "garbage line\n"+`{"v":1,"type":"jobdel","id":"job-1"}`+"\n")
	if _, err := OpenDisk(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestDiskStoreMissingHeaderFails: a store file without the wfstore/v1
// header line is rejected, not misread.
func TestDiskStoreMissingHeaderFails(t *testing.T) {
	dir := t.TempDir()
	line := `{"v":1,"type":"jobdel","id":"job-1"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, storeFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("headerless file: err = %v", err)
	}
}

// TestDiskStoreCompaction: the log is rewritten once enough records
// accumulate, keeping one line per live entry, and the state survives.
func TestDiskStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.PutJob(rec("job-1", "running")); err != nil {
		t.Fatal(err)
	}
	// Overwrite one result key far past the compaction threshold: the
	// log compacts back to a handful of lines.
	for i := 0; i < compactEvery+16; i++ {
		if err := d.PutResult("hot", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines > 32 {
		t.Errorf("log has %d lines after compaction, want few", lines)
	}
	res, ok, _ := d.GetResult("hot")
	want := fmt.Sprintf(`{"i":%d}`, compactEvery+15)
	if !ok || string(res) != want {
		t.Errorf("hot result = %s, want %s", res, want)
	}
	if _, ok, _ := d.GetJob("job-1"); !ok {
		t.Error("job lost across compaction")
	}
}

// TestDiskStoreFailedWriteStillServes pins the Store write contract:
// when the log append fails, the write returns its error but GetJob and
// ListJobs already serve the new record and point.
func TestDiskStoreFailedWriteStillServes(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.PutJob(rec("job-1", "running")); err != nil {
		t.Fatal(err)
	}
	d.log.Close() // every later append fails
	if err := d.PutJob(rec("job-1", "done")); err == nil {
		t.Fatal("PutJob on a closed log succeeded")
	}
	if err := d.PutJob(rec("job-2", "queued")); err == nil {
		t.Fatal("PutJob on a closed log succeeded")
	}
	if err := d.AppendFrontPoint("job-1", json.RawMessage(`{"period":1}`)); err == nil {
		t.Fatal("AppendFrontPoint on a closed log succeeded")
	}
	got, ok, err := d.GetJob("job-1")
	if err != nil || !ok || got.Status != "done" || len(got.Front) != 1 {
		t.Fatalf("GetJob after failed writes = %+v, %v, %v; want done with 1 point", got, ok, err)
	}
	list, err := d.ListJobs()
	if err != nil || len(list) != 2 || list[1].ID != "job-2" {
		t.Fatalf("ListJobs after failed writes = %+v, %v", list, err)
	}
}
