package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/mapping"
	"repliflow/internal/server"
)

// The traced run gives the per-layer metrics. It replays the warm-up and
// the first traceN measured requests serially, in two passes:
//
//  1. In process, through the calls wfserve's handler makes: decode into
//     server.SolveRequest, classify, the engine call, encode. The pass
//     runs once with spans off and once with them on; the difference is
//     the tracing overhead. Separate probes then time single layers on
//     the same inputs: the search kernel, the fingerprint, a cache hit,
//     and allocation counts.
//  2. The same stream over HTTP to a fresh wfserve. Both engines see the
//     same sequence from cold, so their cache hits and misses match; the
//     round trip minus the in-process spans of the same request is the
//     time spent in net/http and the server's own plumbing.
//
// No instrumentation goes into the program: every span is taken here,
// around calls to the layers' public functions.

// span is one timed interval of a traced request, written as a JSON line.
// Spans of one request share req; parent names the enclosing span.
type span struct {
	Pass   string `json:"pass"`
	Req    int    `json:"req"`
	Name   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traced is the per-layer record of one in-process request.
type traced struct {
	decode, classify, engine, encode time.Duration
	// firstPoint is the time from the start of a sweep to its first
	// point, sweep the whole engine call; explored, total and points
	// describe the sweep.
	firstPoint, sweep       time.Duration
	explored, total, points int
	hits, misses            uint64 // engine cache hits and misses of the request
	bytes                   int    // response size
	costs                   []mapping.Cost
}

func (t traced) sum() time.Duration { return t.decode + t.classify + t.engine + t.encode }

// replayer runs requests through the handler's calls on its own engine.
type replayer struct {
	w     *workload
	eng   *engine.Engine
	on    bool // record spans
	base  time.Time
	spans []span
}

func (rp *replayer) now() time.Time {
	if !rp.on {
		return time.Time{}
	}
	return time.Now()
}

func (rp *replayer) span(req int, name, parent string, a, b time.Time) {
	if rp.on && req >= 0 {
		rp.spans = append(rp.spans, span{"inproc", req, name, parent, int64(a.Sub(rp.base)), int64(b.Sub(rp.base))})
	}
}

// replay runs every request in order; id is the measured index of
// request k, negative for warm-up.
func (rp *replayer) replay(reqs []*request, id func(k int) int) ([]traced, error) {
	out := make([]traced, len(reqs))
	for k, req := range reqs {
		var err error
		if rp.w.path == "/v1/pareto" {
			out[k], err = rp.sweep(id(k), req)
		} else {
			out[k], err = rp.solve(id(k), req)
		}
		if err != nil {
			return nil, fmt.Errorf("in-process request %d: %w", k, err)
		}
	}
	return out, nil
}

// solve mirrors wfserve's /v1/solve handler.
func (rp *replayer) solve(id int, req *request) (traced, error) {
	var t traced
	t0 := rp.now()
	pr, err := decodeRequest(req.body)
	if err != nil {
		return t, err
	}
	t1 := rp.now()
	// The handler classifies twice: for its latency metrics and for the
	// response's cell.
	cell := core.CellKeyOf(pr).String()
	_ = core.CellKeyOf(pr).String()
	h0, m0 := rp.eng.CacheStats()
	t2 := rp.now()
	start := time.Now()
	sol, err := rp.eng.Solve(context.Background(), pr, core.Options{})
	elapsed := time.Since(start)
	t3 := rp.now()
	if err != nil {
		return t, err
	}
	h1, m1 := rp.eng.CacheStats()
	body := encodeSolution(rp.w, sol, cell, ms(elapsed))
	t4 := rp.now()

	rp.span(id, "request", "", t0, t4)
	rp.span(id, "instance.decode", "request", t0, t1)
	rp.span(id, "core.classify", "request", t1, t2)
	rp.span(id, "engine.solve", "request", t2, t3)
	rp.span(id, "instance.encode", "request", t3, t4)
	t.decode, t.classify, t.engine, t.encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	t.hits, t.misses, t.bytes = h1-h0, m1-m0, len(body)
	t.costs = []mapping.Cost{sol.Cost}
	return t, nil
}

// sweep mirrors wfserve's /v1/pareto handler: each front point is encoded
// as an NDJSON line inside the engine's callback, as the handler streams
// it, so encode spans nest inside the sweep span.
func (rp *replayer) sweep(id int, req *request) (traced, error) {
	var t traced
	t0 := rp.now()
	pr, err := decodeRequest(req.body)
	if err != nil {
		return t, err
	}
	t1 := rp.now()
	sweepPr := pr
	sweepPr.Objective = core.MinPeriod
	_ = core.CellKeyOf(sweepPr).String()
	h0, m0 := rp.eng.CacheStats()
	t2 := rp.now()
	var buf bytes.Buffer
	stats, err := rp.eng.SweepFront(context.Background(), pr, core.Options{}, engine.SweepObserver{
		Point: func(p engine.SweepPoint) error {
			e0 := rp.now()
			buf.Write(encodeSolution(rp.w, p.Solution, "", 0))
			buf.WriteByte('\n')
			e1 := rp.now()
			if t.points == 0 {
				t.firstPoint = e1.Sub(t2)
			}
			rp.span(id, "instance.encode", "engine.sweep", e0, e1)
			t.encode += e1.Sub(e0)
			t.points++
			t.costs = append(t.costs, p.Solution.Cost)
			return nil
		},
	})
	t3 := rp.now()
	if err != nil {
		return t, err
	}
	h1, m1 := rp.eng.CacheStats()
	line, err := json.Marshal(server.StreamStatus{
		Status: server.StreamStatusComplete, Points: stats.Points,
		Explored: stats.Explored, TotalCandidates: stats.Total,
		Unexplored: stats.Total - stats.Explored, ElapsedMs: ms(t3.Sub(t2)),
	})
	if err != nil {
		return t, err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	t4 := rp.now()

	rp.span(id, "request", "", t0, t4)
	rp.span(id, "instance.decode", "request", t0, t1)
	rp.span(id, "core.classify", "request", t1, t2)
	rp.span(id, "engine.sweep", "request", t2, t3)
	rp.span(id, "instance.encode", "request", t3, t4)
	t.decode, t.classify = t1.Sub(t0), t2.Sub(t1)
	t.sweep = t3.Sub(t2)
	t.engine = t.sweep - t.encode // self time: the point encodes are children
	t.encode += t4.Sub(t3)
	t.explored, t.total = stats.Explored, stats.Total
	t.hits, t.misses, t.bytes = h1-h0, m1-m0, buf.Len()
	return t, nil
}

// problemOf is the instance the request's engine call solves: the
// request's own, or a sweep's min-period endpoint.
func problemOf(w *workload, req *request) core.Problem {
	pr := req.pr
	if w.path == "/v1/pareto" {
		pr.Objective = core.MinPeriod
	}
	return pr
}

// runTrace is the traced per-layer run.
func runTrace(cfg config, w *workload, l load, r *report) (result, error) {
	n := min(len(l.reqs), w.traceN)
	reqs := append(append([]*request(nil), l.warm...), l.reqs[:n]...)
	id := func(k int) int { return k - len(l.warm) }

	// Pass 1: in process, spans off, then on, each on a cold engine. A
	// discarded first pass takes the process's own cold start (code, heap
	// growth) out of the comparison.
	var wallOff time.Duration
	for range 2 {
		off := &replayer{w: w, eng: w.newEngine()}
		t0 := time.Now()
		if _, err := off.replay(reqs, id); err != nil {
			return result{}, err
		}
		wallOff = time.Since(t0)
	}
	on := &replayer{w: w, eng: w.newEngine(), on: true}
	on.base = time.Now()
	all, err := on.replay(reqs, id)
	if err != nil {
		return result{}, err
	}
	wallOn := time.Since(on.base)
	tr := all[len(l.warm):]

	// Single-layer probes on the measured requests.
	prb, err := probe(w, l.reqs[:n])
	if err != nil {
		return result{}, err
	}

	// Pass 2: the same stream over HTTP.
	hp, err := httpPass(cfg, w, l.warm, l.reqs[:n], tr)
	if err != nil {
		return result{}, err
	}
	for _, err := range hp.errs {
		fmt.Fprintf(r.out, "# trace failure: %v\n", err)
	}

	if err := writeSpans(cfg.traceDir, w.name, append(on.spans, hp.spans...)); err != nil {
		return result{}, err
	}

	durs := func(f func(traced) time.Duration) []time.Duration {
		ds := make([]time.Duration, len(tr))
		for i, t := range tr {
			ds[i] = f(t)
		}
		return ds
	}
	cnt := fmt.Sprintf("p50, n=%d", n)
	r.add("instance.decode_us", us(median(durs(func(t traced) time.Duration { return t.decode }))), "us", cnt)
	r.add("instance.decode_allocs", prb.decodeAllocs, "count", prb.allocNote)
	r.add("instance.encode_us", us(median(durs(func(t traced) time.Duration { return t.encode }))), "us", cnt)
	r.add("instance.encode_allocs", prb.encodeAllocs, "count", prb.allocNote)
	sizes := make([]int, len(tr))
	for i, t := range tr {
		sizes[i] = t.bytes
	}
	r.add("instance.response_bytes", float64(median(sizes)), "bytes", cnt)
	r.add("core.classify_us", us(median(durs(func(t traced) time.Duration { return t.classify }))), "us", cnt)
	r.add("core.solve_us", us(median(prb.kernel)), "us", fmt.Sprintf("p50 of core.SolveContext, n=%d", len(prb.kernel)))
	kinds := make([]string, 0, len(prb.kernelByKind))
	for k := range prb.kernelByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ds := prb.kernelByKind[k]
		r.line("core.solve_us."+k, us(median(ds)), "us", fmt.Sprintf("p50, n=%d", len(ds)))
	}
	r.add("engine.fingerprint_us", us(median(prb.fingerprint)), "us", cnt)
	r.add("engine.fingerprint_allocs", prb.fingerprintAllocs, "count", prb.allocNote)
	r.add("engine.call_us", us(median(durs(func(t traced) time.Duration { return t.engine }))), "us",
		cnt+", self time of the handler's engine call")
	r.add("engine.hit_us", us(median(prb.hit)), "us", fmt.Sprintf("p50, n=%d", len(prb.hit)))
	r.add("engine.hit_allocs", prb.hitAllocs, "count", prb.allocNote)
	var hits, misses uint64
	var missDurs []time.Duration
	for _, t := range tr {
		hits += t.hits
		misses += t.misses
		if t.misses > 0 {
			missDurs = append(missDurs, t.engine)
		}
	}
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	r.add("engine.hit_ratio", hitRatio, "ratio", fmt.Sprintf("hits=%d misses=%d over the measured requests", hits, misses))
	if len(missDurs) > 0 {
		r.line("engine.miss_us", us(median(missDurs)), "us", fmt.Sprintf("p50, n=%d", len(missDurs)))
	}
	if w.path == "/v1/pareto" {
		var explored, total, points int
		for _, t := range tr {
			explored += t.explored
			total += t.total
			points += t.points
		}
		r.line("core.prepare_us", us(median(prb.prepare)), "us", fmt.Sprintf("p50, n=%d", len(prb.prepare)))
		sweep := ms(median(durs(func(t traced) time.Duration { return t.sweep })))
		first := ms(median(durs(func(t traced) time.Duration { return t.firstPoint })))
		r.line("engine.sweep_ms", sweep, "ms", cnt)
		r.line("engine.sweep_first_point_ms", first, "ms", cnt)
		purpose(r, first < sweep, "engine.sweep_first_point_ms %.3g < engine.sweep_ms %.3g", first, sweep)
		r.line("engine.sweep_explored_ratio", float64(explored)/float64(total), "ratio",
			fmt.Sprintf("explored=%d of %d candidate periods", explored, total))
		r.line("engine.sweep_points", float64(points)/float64(n), "count", fmt.Sprintf("mean, %d points", points))
	}
	r.add("http.roundtrip_us", us(median(hp.roundtrip)), "us", cnt)
	tail := tailQuantile(len(hp.roundtrip))
	r.add("http.roundtrip_tail_us", us(quantile(hp.roundtrip, tail)), "us", fmt.Sprintf("p%g, n=%d", tail*100, len(hp.roundtrip)))
	r.add("http.residual_us", us(median(hp.residual)), "us", cnt+", round trip minus in-process spans")
	reportServer(r, hp.before, hp.after, r.add)
	// Printed, not a metric: it swings by ±10% run to run, more than the
	// spans can cost (README.md, "Per-layer metrics").
	r.line("trace.overhead_pct", 100*(wallOn.Seconds()-wallOff.Seconds())/wallOff.Seconds(), "%",
		fmt.Sprintf("in-process pass %.3fs with spans, %.3fs without", wallOn.Seconds(), wallOff.Seconds()))
	m := func(name string) float64 { return r.metrics[name].Value }
	switch w.name {
	case "solve-hot":
		share := m("engine.call_us") / m("http.roundtrip_us")
		purpose(r, m("engine.hit_ratio") >= 0.99 && share <= 0.2,
			"engine.hit_ratio %.3g >= 0.99, engine.call_us / http.roundtrip_us %.3g <= 0.2", m("engine.hit_ratio"), share)
	case "solve-churn":
		purpose(r, m("engine.hit_ratio") <= 0.01 && hp.after.size <= float64(w.cacheEntries),
			"engine.hit_ratio %.3g <= 0.01, server.cache_size %.0f <= %d", m("engine.hit_ratio"), hp.after.size, w.cacheEntries)
	case "solve-nphard":
		share := m("core.solve_us") / m("http.roundtrip_us")
		purpose(r, share >= 0.6, "core.solve_us / http.roundtrip_us %.3g >= 0.6", share)
	}
	return result{
		Correct:   hp.failed == 0,
		Attempted: hp.sent,
		Failed:    hp.failed,
		Metrics:   r.metrics,
	}, nil
}

// purpose prints whether the traced run shows the workload doing what it
// is for (README.md, "Per-layer metrics").
func purpose(r *report, ok bool, format string, args ...any) {
	verdict := "met"
	if !ok {
		verdict = "NOT MET"
	}
	fmt.Fprintf(r.out, "# purpose %s: %s\n", verdict, fmt.Sprintf(format, args...))
}
