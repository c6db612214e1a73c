package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// smokeSeconds makes every workload tiny: at most 200 requests, at most
// 3 sweeps.
const smokeSeconds = 0.01

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

func TestBenchmarkJSONListsTheWorkloads(t *testing.T) {
	var listed, defined []string
	for _, w := range readSpec(t).Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(listed, defined) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark defines %v", listed, defined)
	}
}

// TestSmoke runs every workload end to end and traced at a tiny count
// against a freshly built wfserve, and requires every metric of
// BENCHMARK.json, with its unit, and no failed request.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wfserve")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "wfserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repliflow/cmd/wfserve").CombinedOutput(); err != nil {
		t.Fatalf("building wfserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(config{
				workload: w.name, seed: 1, seconds: smokeSeconds, trace: trace,
				traceDir: t.TempDir(), wfserve: bin, setups: 1,
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if !printed(out.String(), w.name, m) {
					t.Errorf("%s trace=%v: no %q line with unit %s in\n%s", w.name, trace, m.Name, m.Unit, out.String())
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// printed reports whether out has a "workload metric value unit" line.
func printed(out, workload string, m specMetric) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
			return true
		}
	}
	return false
}

// TestSeedsVaryInstancesNotMix checks that two seeds give every workload
// the same kind mix over different instances.
func TestSeedsVaryInstancesNotMix(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(t, w, 1), generate(t, w, 2)
		if ma, mb := kindMix(a), kindMix(b); !maps.Equal(ma, mb) {
			t.Errorf("%s: seed 1 kind mix %v, seed 2 %v", w.name, ma, mb)
		}
		seen := make(map[string]bool)
		for _, r := range distinctRequests(a) {
			seen[string(r.body)] = true
		}
		for _, r := range distinctRequests(b) {
			if seen[string(r.body)] {
				t.Errorf("%s: seeds 1 and 2 share the instance %s", w.name, r.body)
			}
		}
	}
}

func generate(t *testing.T, w *workload, seed int64) load {
	t.Helper()
	l, err := w.gen(rand.New(rand.NewSource(seed)), w.count(smokeSeconds))
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return l
}

// distinctRequests are the instances of a load: solve-hot repeats its
// pool, the other workloads send each instance once.
func distinctRequests(l load) []*request {
	var out []*request
	seen := make(map[*request]bool)
	for _, r := range append(slices.Clone(l.warm), l.reqs...) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

func kindMix(l load) map[string]int {
	mix := make(map[string]int)
	for _, r := range distinctRequests(l) {
		mix[r.kind]++
	}
	return mix
}
