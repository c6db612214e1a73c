// Package benchgate turns the BENCH_*.json performance claims into an
// enforced CI gate: it parses `go test -bench` output (including the
// -benchmem columns), reduces repeated runs (-count N) to their fastest
// time and lowest allocation count, and compares each benchmark against a
// checked-in baseline, failing on regressions beyond the baseline's
// tolerance — in ns/op, and in allocs/op for benchmarks listed in the
// baseline's allocs map. cmd/benchgate is the CLI the workflow runs.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
)

// DefaultTolerance is the regression factor applied when the baseline
// file does not set one: a benchmark fails the gate when its fastest
// run exceeds baseline * 1.25 (>25% slower).
const DefaultTolerance = 1.25

// Baseline is the checked-in performance contract (BENCH_baseline.json):
// the fastest-of-N ns/op (and, where gated, lowest-of-N allocs/op)
// recorded for each gated benchmark on the CI runner class, plus the
// allowed regression factor.
type Baseline struct {
	Description string `json:"description,omitempty"`
	// Command documents how the gated numbers are produced.
	Command string `json:"command,omitempty"`
	// Tolerance is the allowed slowdown factor (e.g. 1.25 = +25%);
	// <= 1 selects DefaultTolerance.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Benchmarks maps benchmark names to their baseline ns/op. Names are
	// keyed exactly as ParseResults normalizes them: the -GOMAXPROCS
	// suffix of a single-core run ("-1") is dropped, so the bare name
	// always means the serial measurement, while multi-core runs (-cpu
	// 4 → "BenchmarkX-4") keep their suffix and are gated as separate
	// entries — a parallel speedup claim lives next to the serial gate it
	// is measured against.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Allocs maps benchmark names to their baseline allocs/op; listed
	// benchmarks are additionally gated on allocation count, which
	// requires the bench run to use -benchmem. Unlike ns/op, allocs/op
	// is nearly deterministic, so this catches allocation regressions
	// that hide inside runner-speed noise.
	Allocs map[string]float64 `json:"allocs,omitempty"`
}

// ReadBaseline decodes a baseline file.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Baseline{}, fmt.Errorf("benchgate: decoding baseline: %w", err)
	}
	if len(b.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("benchgate: baseline gates no benchmarks")
	}
	for name, ns := range b.Benchmarks {
		if ns <= 0 {
			return Baseline{}, fmt.Errorf("benchgate: baseline for %s is %g ns/op, want > 0", name, ns)
		}
	}
	for name, allocs := range b.Allocs {
		if allocs < 0 {
			return Baseline{}, fmt.Errorf("benchgate: alloc baseline for %s is %g allocs/op, want >= 0", name, allocs)
		}
	}
	return b, nil
}

// WriteBaseline encodes a baseline file (the -update path).
func WriteBaseline(w io.Writer, b Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Result is the reduced measurement of one benchmark across repeated
// runs: fastest ns/op, and lowest allocs/op when the run used -benchmem.
type Result struct {
	NsPerOp     float64
	AllocsPerOp float64
	// HasAllocs marks results parsed from -benchmem output; without it
	// AllocsPerOp is meaningless and alloc gating reports the benchmark
	// as missing.
	HasAllocs bool
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSolveCached-4   	    1000	     37517 ns/op	   12284 B/op	     149 allocs/op
//
// The -4 suffix is the GOMAXPROCS (or -cpu value) the run used; it is
// captured separately and normalized by resultKey. The B/op + allocs/op
// tail is present only under -benchmem, after any columns the benchmark
// adds with b.ReportMetric, which go test prints right after ns/op.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:(?:\s+\S+ \S+)*?\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// resultKey normalizes a benchmark name + -GOMAXPROCS suffix into its
// baseline key: "-1" (and a bare name, which go test emits when
// GOMAXPROCS is 1 and matches the procs count) collapse to the bare
// name — both mean the serial measurement — while any other suffix is
// kept, so a -cpu 1,4 run yields two distinct keys ("BenchmarkX" and
// "BenchmarkX-4") instead of min-merging the 4-core time into the
// serial gate.
func resultKey(name, suffix string) string {
	if suffix == "" || suffix == "-1" {
		return name
	}
	return name + suffix
}

// ParseResults extracts {benchmark name -> reduced Result} from `go test
// -bench` output. Repeated runs of one benchmark (-count N) reduce to
// their minimum ns/op and minimum allocs/op: the fastest (least
// preempted) run is the least noisy estimate of the code's true cost,
// which is what a regression gate should compare.
func ParseResults(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op on line %q: %w", sc.Text(), err)
		}
		res := Result{NsPerOp: ns}
		if m[5] != "" {
			allocs, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad allocs/op on line %q: %w", sc.Text(), err)
			}
			res.AllocsPerOp = allocs
			res.HasAllocs = true
		}
		key := resultKey(m[1], m[2])
		out[key] = MergeResult(out[key], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeResult reduces two measurements of one benchmark to the less noisy
// one per metric (minimum ns/op, minimum allocs/op). The zero Result is
// the identity.
func MergeResult(a, b Result) Result {
	if a == (Result{}) {
		return b
	}
	if b == (Result{}) {
		return a
	}
	out := a
	if b.NsPerOp < out.NsPerOp {
		out.NsPerOp = b.NsPerOp
	}
	switch {
	case !out.HasAllocs:
		out.AllocsPerOp, out.HasAllocs = b.AllocsPerOp, b.HasAllocs
	case b.HasAllocs && b.AllocsPerOp < out.AllocsPerOp:
		out.AllocsPerOp = b.AllocsPerOp
	}
	return out
}

// Violation is one gate failure: a gated benchmark that regressed past
// the tolerance, or that vanished from the results.
type Violation struct {
	Name string
	// Metric is the gated quantity: "ns/op" or "allocs/op".
	Metric   string
	Baseline float64
	// Actual is 0 with Missing set when the benchmark (or its -benchmem
	// column) is absent from the results.
	Actual  float64
	Missing bool
	Factor  float64
}

// String formats the violation for CI logs.
func (v Violation) String() string {
	if v.Missing {
		return fmt.Sprintf("%s: gated benchmark missing %s from results (baseline %.0f; run with -benchmem for alloc gates)",
			v.Name, v.Metric, v.Baseline)
	}
	return fmt.Sprintf("%s: %.0f %s vs baseline %.0f %s (%.2fx, limit %.2fx)",
		v.Name, v.Actual, v.Metric, v.Baseline, v.Metric, v.Actual/v.Baseline, v.Factor)
}

// Compare gates results against the baseline, returning the violations
// sorted by name then metric (empty = gate passes). Benchmarks present
// in the results but absent from the baseline are ignored — new
// benchmarks join the gate by being added to the baseline file.
func Compare(b Baseline, results map[string]Result) []Violation {
	tol := b.Tolerance
	if tol <= 1 {
		tol = DefaultTolerance
	}
	var out []Violation
	for name, base := range b.Benchmarks {
		got, ok := results[name]
		if !ok {
			out = append(out, Violation{Name: name, Metric: "ns/op", Baseline: base, Missing: true, Factor: tol})
			continue
		}
		if got.NsPerOp > base*tol {
			out = append(out, Violation{Name: name, Metric: "ns/op", Baseline: base, Actual: got.NsPerOp, Factor: tol})
		}
	}
	for name, base := range b.Allocs {
		got, ok := results[name]
		if !ok || !got.HasAllocs {
			out = append(out, Violation{Name: name, Metric: "allocs/op", Baseline: base, Missing: true, Factor: tol})
			continue
		}
		// A zero-alloc baseline tolerates nothing: any allocation on a
		// path pinned at zero is a regression.
		if got.AllocsPerOp > base*tol {
			out = append(out, Violation{Name: name, Metric: "allocs/op", Baseline: base, Actual: got.AllocsPerOp, Factor: tol})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Update returns a baseline whose gated benchmarks are refreshed from
// the results, keeping the gate sets (names) and metadata unchanged.
// Gated benchmarks missing from the results — or missing -benchmem
// columns for alloc-gated ones — are an error.
func Update(b Baseline, results map[string]Result) (Baseline, error) {
	fresh := make(map[string]float64, len(b.Benchmarks))
	for name := range b.Benchmarks {
		got, ok := results[name]
		if !ok {
			return Baseline{}, fmt.Errorf("benchgate: gated benchmark %s missing from results", name)
		}
		fresh[name] = got.NsPerOp
	}
	b.Benchmarks = fresh
	if len(b.Allocs) > 0 {
		freshAllocs := make(map[string]float64, len(b.Allocs))
		for name := range b.Allocs {
			got, ok := results[name]
			if !ok || !got.HasAllocs {
				return Baseline{}, fmt.Errorf("benchgate: alloc-gated benchmark %s missing allocs/op from results (run with -benchmem)", name)
			}
			freshAllocs[name] = got.AllocsPerOp
		}
		b.Allocs = freshAllocs
	}
	return b, nil
}
