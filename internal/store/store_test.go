package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// rec returns a representative job record.
func rec(id, status string) JobRecord {
	return JobRecord{
		ID:        id,
		Kind:      "pareto",
		Status:    status,
		Client:    "tenant-a",
		Request:   json.RawMessage(`{"kind":"pareto"}`),
		CreatedMs: 1000,
		Done:      3,
		Total:     9,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	job := rec("job-1", "running")
	cases := []Record{
		{V: 1, Type: RecordJob, Job: &job},
		{V: 1, Type: RecordPoint, ID: "job-1", Point: json.RawMessage(`{"period":2}`)},
		{V: 1, Type: RecordJobDelete, ID: "job-1"},
		{V: 1, Type: RecordResult, Key: EncodeKey("\x00binary\xffkey"), Result: json.RawMessage(`{"period":2}`)},
	}
	for _, want := range cases {
		line, err := EncodeRecord(want)
		if err != nil {
			t.Fatalf("%s: encode: %v", want.Type, err)
		}
		got, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Errorf("%s: round trip %s != %s", want.Type, b, a)
		}
	}
}

func TestRecordKeyRoundTrip(t *testing.T) {
	for _, fp := range []string{"", "plain", "\x00\x01\xfe\xff", "P\x03\x00\x00\x00"} {
		key := EncodeKey(fp)
		got, err := DecodeKey(key)
		if err != nil || got != fp {
			t.Errorf("key round trip of %q: got %q, %v", fp, got, err)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	job := rec("job-1", "running")
	okLine, _ := EncodeRecord(Record{V: 1, Type: RecordJob, Job: &job})
	cases := map[string]string{
		"empty":               "",
		"not json":            "nope",
		"wrong version":       `{"v":2,"type":"jobdel","id":"j"}`,
		"missing version":     `{"type":"jobdel","id":"j"}`,
		"unknown type":        `{"v":1,"type":"frob","id":"j"}`,
		"unknown field":       `{"v":1,"type":"jobdel","id":"j","extra":1}`,
		"trailing data":       strings.TrimSuffix(string(okLine), "\n") + ` {"v":1}`,
		"job without record":  `{"v":1,"type":"job"}`,
		"job with empty id":   `{"v":1,"type":"job","job":{"id":"","kind":"solve","status":"queued","createdMs":1}}`,
		"job with foreign":    `{"v":1,"type":"job","job":{"id":"j","kind":"solve","status":"queued","createdMs":1},"key":"aaaa"}`,
		"point without id":    `{"v":1,"type":"point","point":{}}`,
		"point without point": `{"v":1,"type":"point","id":"j"}`,
		"jobdel without id":   `{"v":1,"type":"jobdel"}`,
		"result bad key":      `{"v":1,"type":"result","key":"!!!","result":{}}`,
		"result without key":  `{"v":1,"type":"result","result":{}}`,
	}
	for name, line := range cases {
		if _, err := DecodeRecord([]byte(line)); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		}
	}
}

// conformance exercises the Store contract shared by every
// implementation.
func conformance(t *testing.T, s Store) {
	t.Helper()
	if st := s.Stats(); st.Jobs != 0 || st.Results != 0 {
		t.Fatalf("fresh store stats = %+v", st)
	}

	// Jobs: upsert, get, list order, append points, delete.
	if err := s.PutJob(rec("job-1", "queued")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(rec("job-2", "running")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetJob("job-1")
	if err != nil || !ok || got.ID != "job-1" || got.Status != "queued" || got.Client != "tenant-a" {
		t.Fatalf("GetJob = %+v, %v, %v", got, ok, err)
	}
	if _, ok, err := s.GetJob("nope"); ok || err != nil {
		t.Fatalf("unknown job: ok=%v err=%v", ok, err)
	}
	if err := s.AppendFrontPoint("job-2", json.RawMessage(`{"period":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFrontPoint("job-2", json.RawMessage(`{"period":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFrontPoint("ghost", json.RawMessage(`{}`)); err == nil {
		t.Error("appending to an unknown job succeeded")
	}
	got, _, _ = s.GetJob("job-2")
	if len(got.Front) != 2 || string(got.Front[1]) != `{"period":2}` {
		t.Fatalf("front = %v", got.Front)
	}
	// Upsert replaces the whole record, including the front.
	upd := rec("job-2", "done")
	upd.FinishedMs = 3000
	upd.Front = got.Front
	if err := s.PutJob(upd); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.GetJob("job-2")
	if got.Status != "done" || got.FinishedMs != 3000 || len(got.Front) != 2 {
		t.Fatalf("after upsert: %+v", got)
	}
	list, err := s.ListJobs()
	if err != nil || len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
		t.Fatalf("ListJobs = %+v, %v", list, err)
	}
	if err := s.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob("job-1"); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok, _ := s.GetJob("job-1"); ok {
		t.Error("deleted job still stored")
	}

	// Results.
	if _, ok, err := s.GetResult("k1"); ok || err != nil {
		t.Fatalf("unknown result: ok=%v err=%v", ok, err)
	}
	if err := s.PutResult("k1", json.RawMessage(`{"period":7}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("k1", json.RawMessage(`{"period":8}`)); err != nil {
		t.Fatal(err)
	}
	res, ok, err := s.GetResult("k1")
	if err != nil || !ok || string(res) != `{"period":8}` {
		t.Fatalf("GetResult = %s, %v, %v", res, ok, err)
	}
	if st := s.Stats(); st.Jobs != 1 || st.Results != 1 {
		t.Errorf("stats = %+v, want 1 job, 1 result", st)
	}

	// Returned records are isolated from the store.
	got, _, _ = s.GetJob("job-2")
	got.Front[0] = json.RawMessage(`"mutated"`)
	again, _, _ := s.GetJob("job-2")
	if string(again.Front[0]) == `"mutated"` {
		t.Error("store shares memory with returned records")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(rec("job-9", "queued")); err == nil {
		t.Error("PutJob on a closed store succeeded")
	}
}

func TestMemStoreConformance(t *testing.T) { conformance(t, Mem()) }

func TestDiskStoreConformance(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, d)
}

// TestMemStoreBounds: the in-memory store evicts oldest-terminal jobs
// and FIFO results at its caps instead of growing without bound.
func TestMemStoreBounds(t *testing.T) {
	m := Mem()
	for i := 0; i < memMaxJobs+10; i++ {
		r := rec(jobID(i), "done")
		if err := m.PutJob(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Jobs != memMaxJobs {
		t.Errorf("jobs = %d, want capped at %d", st.Jobs, memMaxJobs)
	}
	if _, ok, _ := m.GetJob(jobID(0)); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok, _ := m.GetJob(jobID(memMaxJobs + 9)); !ok {
		t.Error("newest job missing")
	}
	for i := 0; i < memMaxResults+10; i++ {
		if err := m.PutResult(jobID(i), json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Results != memMaxResults {
		t.Errorf("results = %d, want capped at %d", st.Results, memMaxResults)
	}
	if _, ok, _ := m.GetResult(jobID(0)); ok {
		t.Error("oldest result not evicted")
	}
}

// TestMemStoreKeepsLiveJobs: a store full of live records grows past
// its bound instead of evicting one — each is a running job's only
// copy — and evicts a terminal record as soon as one exists.
func TestMemStoreKeepsLiveJobs(t *testing.T) {
	m := Mem()
	for i := 0; i <= memMaxJobs; i++ {
		if err := m.PutJob(rec(jobID(i), "running")); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Jobs != memMaxJobs+1 {
		t.Errorf("jobs = %d, want all %d live records kept", st.Jobs, memMaxJobs+1)
	}
	if _, ok, _ := m.GetJob(jobID(0)); !ok {
		t.Fatal("oldest live job evicted")
	}
	// Job 5 finishes; the next new record evicts it, and only it.
	if err := m.PutJob(rec(jobID(5), "done")); err != nil {
		t.Fatal(err)
	}
	if err := m.PutJob(rec(jobID(memMaxJobs+1), "queued")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.GetJob(jobID(5)); ok {
		t.Error("terminal job not evicted")
	}
	if st := m.Stats(); st.Jobs != memMaxJobs+1 {
		t.Errorf("jobs = %d, want %d", st.Jobs, memMaxJobs+1)
	}
}

func jobID(i int) string { return fmt.Sprintf("job-%d", i) }
