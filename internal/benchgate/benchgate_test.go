package benchgate

import (
	"bytes"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repliflow/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolveCached-4   	    1000	     40000 ns/op	   12284 B/op	     151 allocs/op
BenchmarkSolveCached-4   	    1000	     37517 ns/op	   12284 B/op	     149 allocs/op
BenchmarkSolveCached-4   	    1000	     39000 ns/op	   12284 B/op	     150 allocs/op
BenchmarkEngineSolveBatch/Engine-4         	       1	27152174 ns/op
BenchmarkEngineSolveBatch/Serial 	       1	99165543 ns/op
PASS
ok  	repliflow/internal/server	2.480s
`

func TestParseResultsTakesFastestRun(t *testing.T) {
	res, err := ParseResults(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkSolveCached-4":             {NsPerOp: 37517, AllocsPerOp: 149, HasAllocs: true},
		"BenchmarkEngineSolveBatch/Engine-4": {NsPerOp: 27152174},
		"BenchmarkEngineSolveBatch/Serial":   {NsPerOp: 99165543},
	}
	if len(res) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(res), len(want), res)
	}
	for name, r := range want {
		if res[name] != r {
			t.Errorf("%s = %+v, want %+v", name, res[name], r)
		}
	}
}

// TestParseResultsSkipsReportedMetrics: go test prints the columns a
// benchmark adds with b.ReportMetric (and SetBytes' MB/s) between ns/op
// and B/op; they must not hide the allocs.
func TestParseResultsSkipsReportedMetrics(t *testing.T) {
	const out = `BenchmarkReplaySeedTrace 1 118102113 ns/op 12.00 events/op 0 polls/op 29034240 B/op 417388 allocs/op
BenchmarkKernelParetoPipeline-4   	       1	  17523110 ns/op	         0 dpsolves/op	  412345 B/op	    1058 allocs/op
BenchmarkDecode   	   10000	      1500 ns/op	  85.33 MB/s	     512 B/op	       7 allocs/op
BenchmarkCustomOnly   	       1	      2000 ns/op	         3.000 events/op
`
	res, err := ParseResults(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkReplaySeedTrace":        {NsPerOp: 118102113, AllocsPerOp: 417388, HasAllocs: true},
		"BenchmarkKernelParetoPipeline-4": {NsPerOp: 17523110, AllocsPerOp: 1058, HasAllocs: true},
		"BenchmarkDecode":                 {NsPerOp: 1500, AllocsPerOp: 7, HasAllocs: true},
		"BenchmarkCustomOnly":             {NsPerOp: 2000},
	}
	if len(res) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(res), len(want), res)
	}
	for name, r := range want {
		if res[name] != r {
			t.Errorf("%s = %+v, want %+v", name, res[name], r)
		}
	}
}

// TestParseResultsNormalizesCPUSuffix: a -cpu 1,4 run interleaves
// GOMAXPROCS variants of one benchmark. The -1 suffix (and a bare name)
// normalizes to the serial key; other suffixes stay distinct keys, so
// the 4-core time can never min-merge into the serial gate.
func TestParseResultsNormalizesCPUSuffix(t *testing.T) {
	const out = `BenchmarkSolveSingleLarge/Serial-1     	       2	 500000000 ns/op	     100 B/op	       5 allocs/op
BenchmarkSolveSingleLarge/Serial-4     	       2	 480000000 ns/op	     100 B/op	       5 allocs/op
BenchmarkSolveSingleLarge/Parallel-1   	       2	 510000000 ns/op
BenchmarkSolveSingleLarge/Parallel-4   	       8	 150000000 ns/op
BenchmarkSolveSingleLarge/Serial-1     	       2	 490000000 ns/op	     100 B/op	       4 allocs/op
`
	res, err := ParseResults(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkSolveSingleLarge/Serial":     {NsPerOp: 490000000, AllocsPerOp: 4, HasAllocs: true},
		"BenchmarkSolveSingleLarge/Serial-4":   {NsPerOp: 480000000, AllocsPerOp: 5, HasAllocs: true},
		"BenchmarkSolveSingleLarge/Parallel":   {NsPerOp: 510000000},
		"BenchmarkSolveSingleLarge/Parallel-4": {NsPerOp: 150000000},
	}
	if len(res) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(res), len(want), res)
	}
	for name, r := range want {
		if res[name] != r {
			t.Errorf("%s = %+v, want %+v", name, res[name], r)
		}
	}
}

func TestCompareFlagsRegressionsAndMissing(t *testing.T) {
	base := Baseline{Benchmarks: map[string]float64{
		"BenchmarkFast":    1000,
		"BenchmarkSteady":  1000,
		"BenchmarkGone":    1000,
		"BenchmarkAtLimit": 1000,
	}}
	results := map[string]Result{
		"BenchmarkFast":    {NsPerOp: 2000}, // 2x: regression
		"BenchmarkSteady":  {NsPerOp: 1100}, // +10%: fine
		"BenchmarkAtLimit": {NsPerOp: 1250}, // exactly at the limit: fine
		"BenchmarkNew":     {NsPerOp: 5},    // not gated: ignored
	}
	vs := Compare(base, results)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	if vs[0].Name != "BenchmarkFast" || vs[0].Actual != 2000 {
		t.Errorf("violation 0 = %v, want BenchmarkFast regression", vs[0])
	}
	if vs[1].Name != "BenchmarkGone" || !vs[1].Missing {
		t.Errorf("violation 1 = %v, want BenchmarkGone missing", vs[1])
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]float64{"BenchmarkX": 1000, "BenchmarkY": 1000, "BenchmarkZ": 1000},
		Allocs:     map[string]float64{"BenchmarkX": 100, "BenchmarkY": 100, "BenchmarkZ": 100},
	}
	results := map[string]Result{
		// ns fine, allocs doubled: alloc violation only.
		"BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 200, HasAllocs: true},
		// Within tolerance on both metrics.
		"BenchmarkY": {NsPerOp: 1100, AllocsPerOp: 110, HasAllocs: true},
		// Run without -benchmem: the alloc gate reports it missing.
		"BenchmarkZ": {NsPerOp: 1000},
	}
	vs := Compare(base, results)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	if vs[0].Name != "BenchmarkX" || vs[0].Metric != "allocs/op" || vs[0].Actual != 200 {
		t.Errorf("violation 0 = %v, want BenchmarkX allocs regression", vs[0])
	}
	if vs[1].Name != "BenchmarkZ" || vs[1].Metric != "allocs/op" || !vs[1].Missing {
		t.Errorf("violation 1 = %v, want BenchmarkZ missing allocs", vs[1])
	}
}

func TestCompareZeroAllocBaselineTolatesNothing(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]float64{"BenchmarkZero": 1000},
		Allocs:     map[string]float64{"BenchmarkZero": 0},
	}
	res := map[string]Result{"BenchmarkZero": {NsPerOp: 1000, AllocsPerOp: 1, HasAllocs: true}}
	if vs := Compare(base, res); len(vs) != 1 || vs[0].Metric != "allocs/op" {
		t.Errorf("1 alloc on a zero-alloc gate not flagged: %v", vs)
	}
	res["BenchmarkZero"] = Result{NsPerOp: 1000, HasAllocs: true}
	if vs := Compare(base, res); len(vs) != 0 {
		t.Errorf("zero allocs on a zero-alloc gate flagged: %v", vs)
	}
}

func TestCompareRespectsFileTolerance(t *testing.T) {
	base := Baseline{
		Tolerance:  3,
		Benchmarks: map[string]float64{"BenchmarkX": 1000},
	}
	if vs := Compare(base, map[string]Result{"BenchmarkX": {NsPerOp: 2500}}); len(vs) != 0 {
		t.Errorf("2.5x within a 3x tolerance flagged: %v", vs)
	}
	if vs := Compare(base, map[string]Result{"BenchmarkX": {NsPerOp: 3500}}); len(vs) != 1 {
		t.Errorf("3.5x beyond a 3x tolerance not flagged: %v", vs)
	}
}

func TestBaselineRoundTripAndValidation(t *testing.T) {
	b := Baseline{
		Description: "test",
		Command:     "go test -bench .",
		Tolerance:   1.5,
		Benchmarks:  map[string]float64{"BenchmarkX": 123},
		Allocs:      map[string]float64{"BenchmarkX": 45},
	}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks["BenchmarkX"] != 123 || back.Tolerance != 1.5 || back.Allocs["BenchmarkX"] != 45 {
		t.Errorf("round trip drift: %+v", back)
	}

	for name, doc := range map[string]string{
		"empty":           `{"benchmarks": {}}`,
		"non-positive":    `{"benchmarks": {"BenchmarkX": 0}}`,
		"unknown":         `{"benchmark": {"BenchmarkX": 1}}`,
		"negative-allocs": `{"benchmarks": {"BenchmarkX": 1}, "allocs": {"BenchmarkX": -1}}`,
	} {
		if _, err := ReadBaseline(strings.NewReader(doc)); err == nil {
			t.Errorf("%s baseline accepted", name)
		}
	}
}

func TestUpdateRefreshesGatedSet(t *testing.T) {
	b := Baseline{
		Benchmarks: map[string]float64{"BenchmarkX": 1000, "BenchmarkY": 2000},
		Allocs:     map[string]float64{"BenchmarkX": 50},
	}
	res := map[string]Result{
		"BenchmarkX": {NsPerOp: 900, AllocsPerOp: 40, HasAllocs: true},
		"BenchmarkY": {NsPerOp: 2500},
		"BenchmarkZ": {NsPerOp: 1},
	}
	up, err := Update(b, res)
	if err != nil {
		t.Fatal(err)
	}
	if up.Benchmarks["BenchmarkX"] != 900 || up.Benchmarks["BenchmarkY"] != 2500 {
		t.Errorf("update drift: %v", up.Benchmarks)
	}
	if up.Allocs["BenchmarkX"] != 40 {
		t.Errorf("alloc update drift: %v", up.Allocs)
	}
	if _, ok := up.Benchmarks["BenchmarkZ"]; ok {
		t.Error("update added an ungated benchmark")
	}
	if _, err := Update(b, map[string]Result{"BenchmarkX": {NsPerOp: 900, HasAllocs: true}}); err == nil {
		t.Error("update with a missing gated benchmark accepted")
	}
	// Alloc-gated benchmark present but run without -benchmem: refuse,
	// the refreshed baseline would silently drop the alloc gate's basis.
	if _, err := Update(b, map[string]Result{
		"BenchmarkX": {NsPerOp: 900},
		"BenchmarkY": {NsPerOp: 2500},
	}); err == nil {
		t.Error("alloc update without -benchmem results accepted")
	}
}
