package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, spanning microsecond closed-form solves to multi-second
// exhaustive searches. The implicit +Inf bucket is rendered separately.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is one cumulative latency histogram (Prometheus semantics:
// counts[i] is the number of observations <= latencyBuckets[i]).
type histogram struct {
	counts []uint64
	count  uint64
	sum    float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets))}
}

func (h *histogram) observe(seconds float64) {
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
		}
	}
	h.count++
	h.sum += seconds
}

// metrics aggregates the server's counters. All methods are safe for
// concurrent use; rendering takes the same lock as recording, so a
// /metrics scrape sees a consistent snapshot.
type metrics struct {
	mu       sync.Mutex
	requests map[requestKey]uint64
	solves   map[solveKey]*histogram
}

// solveKey is one latency histogram series: the Table 1 dispatch cell
// plus the operation ("solve" for single solves, "pareto" for whole
// sweeps), so multi-solve sweep wall clock never pollutes the
// single-solve series of the same cell.
type solveKey struct {
	cell string
	op   string
}

// requestKey is one (endpoint, HTTP status) counter cell.
type requestKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[requestKey]uint64),
		solves:   make(map[solveKey]*histogram),
	}
}

// recordRequest counts one finished HTTP request.
func (m *metrics) recordRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests[requestKey{endpoint, code}]++
	m.mu.Unlock()
}

// recordSolve observes one latency against the histogram of its
// (dispatch cell, operation) series.
func (m *metrics) recordSolve(cell, op string, seconds float64) {
	key := solveKey{cell, op}
	m.mu.Lock()
	h := m.solves[key]
	if h == nil {
		h = newHistogram()
		m.solves[key] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

// gauge is one named value rendered alongside the internal counters
// (cache statistics, in-flight count, uptime).
type gauge struct {
	name, help, typ string
	value           float64
}

// write renders every metric in the Prometheus text exposition format,
// with panics (the engine's recovered solver panics by dispatch cell) as
// one counter series per cell. The snapshot is rendered into a buffer
// under the lock and written to w after releasing it, so a slow scraper
// can never stall the request handlers that record metrics.
func (m *metrics) write(w io.Writer, gauges []gauge, panics map[string]uint64) {
	var b bytes.Buffer
	m.render(&b, gauges, panics)
	w.Write(b.Bytes()) //nolint:errcheck // the scraper is gone if this fails
}

func (m *metrics) render(w *bytes.Buffer, gauges []gauge, panics map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP wfserve_requests_total Finished HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE wfserve_requests_total counter\n")
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "wfserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP wfserve_solve_seconds Solve latency by Table 1 dispatch cell and operation (solve = one instance, pareto = a whole sweep).\n")
	fmt.Fprintf(w, "# TYPE wfserve_solve_seconds histogram\n")
	skeys := make([]solveKey, 0, len(m.solves))
	for k := range m.solves {
		skeys = append(skeys, k)
	}
	sort.Slice(skeys, func(i, j int) bool {
		if skeys[i].cell != skeys[j].cell {
			return skeys[i].cell < skeys[j].cell
		}
		return skeys[i].op < skeys[j].op
	})
	for _, k := range skeys {
		h := m.solves[k]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "wfserve_solve_seconds_bucket{cell=%q,op=%q,le=%q} %d\n", k.cell, k.op, formatFloat(le), h.counts[i])
		}
		fmt.Fprintf(w, "wfserve_solve_seconds_bucket{cell=%q,op=%q,le=\"+Inf\"} %d\n", k.cell, k.op, h.count)
		fmt.Fprintf(w, "wfserve_solve_seconds_sum{cell=%q,op=%q} %s\n", k.cell, k.op, formatFloat(h.sum))
		fmt.Fprintf(w, "wfserve_solve_seconds_count{cell=%q,op=%q} %d\n", k.cell, k.op, h.count)
	}

	fmt.Fprintf(w, "# HELP wfserve_solver_panics_total Solver panics recovered into internal errors, by Table 1 dispatch cell.\n")
	fmt.Fprintf(w, "# TYPE wfserve_solver_panics_total counter\n")
	cells := make([]string, 0, len(panics))
	for cell := range panics {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	for _, cell := range cells {
		fmt.Fprintf(w, "wfserve_solver_panics_total{cell=%q} %d\n", cell, panics[cell])
	}

	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n", g.name, g.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", g.name, g.typ)
		fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.value))
	}
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip decimal, integral values without an exponent).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
