package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/instance"
	"repliflow/internal/mapping"
	"repliflow/internal/server"
)

const (
	// probeReps repeats sub-microsecond calls so one timing is not the
	// clock's resolution.
	probeReps = 16
	// hitSample and allocSample bound the requests probed for cache-hit
	// time and for allocation counts.
	hitSample   = 256
	allocSample = 16
	// allocReps is the loop length of one allocation count.
	allocReps = 20
)

// probes are single-layer measurements on the measured requests, taken
// outside the request path.
type probes struct {
	kernel       []time.Duration
	kernelByKind map[string][]time.Duration
	fingerprint  []time.Duration
	hit          []time.Duration
	prepare      []time.Duration // sweeps only

	decodeAllocs, encodeAllocs, fingerprintAllocs, hitAllocs float64
	allocNote                                                string
}

func probe(w *workload, reqs []*request) (probes, error) {
	ctx := context.Background()
	var opts core.Options
	p := probes{kernelByKind: make(map[string][]time.Duration)}
	for _, req := range reqs {
		pr := problemOf(w, req)
		t0 := time.Now()
		if _, err := core.SolveContext(ctx, pr, opts); err != nil {
			return p, fmt.Errorf("kernel probe: %w", err)
		}
		d := time.Since(t0)
		p.kernel = append(p.kernel, d)
		p.kernelByKind[req.kind] = append(p.kernelByKind[req.kind], d)
		t0 = time.Now()
		for i := 0; i < probeReps; i++ {
			engine.Fingerprint(pr, opts)
		}
		p.fingerprint = append(p.fingerprint, time.Since(t0)/probeReps)
		if w.path == "/v1/pareto" {
			t0 = time.Now()
			core.Prepare(pr, opts)
			p.prepare = append(p.prepare, time.Since(t0))
		}
	}

	eng := w.newEngine()
	solve := func(pr core.Problem) (core.Solution, error) { return eng.Solve(ctx, pr, opts) }
	for i := 0; i < len(reqs); i += max(1, len(reqs)/hitSample) {
		pr := problemOf(w, reqs[i])
		if _, err := solve(pr); err != nil {
			return p, fmt.Errorf("hit probe: %w", err)
		}
		t0 := time.Now()
		for k := 0; k < probeReps; k++ {
			solve(pr) //nolint:errcheck // the same solve succeeded above
		}
		p.hit = append(p.hit, time.Since(t0)/probeReps)
	}

	var dec, enc, fp, hit []float64
	for i := 0; i < len(reqs); i += max(1, len(reqs)/allocSample) {
		req, pr := reqs[i], problemOf(w, reqs[i])
		sol, err := solve(pr)
		if err != nil {
			return p, fmt.Errorf("alloc probe: %w", err)
		}
		cell := core.CellKeyOf(pr).String()
		dec = append(dec, allocsPer(func() { decodeRequest(req.body) })) //nolint:errcheck // decoded in the pass
		enc = append(enc, allocsPer(func() { encodeSolution(w, sol, cell, 0) }))
		fp = append(fp, allocsPer(func() { engine.Fingerprint(pr, opts) }))
		hit = append(hit, allocsPer(func() { solve(pr) })) //nolint:errcheck // the same solve succeeded above
	}
	p.decodeAllocs, p.encodeAllocs = median(dec), median(enc)
	p.fingerprintAllocs, p.hitAllocs = median(fp), median(hit)
	p.allocNote = fmt.Sprintf("median over %d requests of runtime.MemStats.Mallocs per call", len(dec))
	return p, nil
}

// decodeRequest is the handler's decode step.
func decodeRequest(body []byte) (core.Problem, error) {
	var sreq server.SolveRequest
	if err := instance.DecodeStrict(bytes.NewReader(body), &sreq); err != nil {
		return core.Problem{}, err
	}
	return sreq.Instance.Problem()
}

// encodeSolution is the handler's encode step for one solution: a whole
// /v1/solve response, or one front-point line of a sweep. Neither can
// fail to marshal: both are plain structs of numbers, strings and slices.
func encodeSolution(w *workload, sol core.Solution, cell string, elapsedMs float64) []byte {
	if w.path == "/v1/pareto" {
		b, _ := json.Marshal(instance.FromSolution(sol))
		return b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(server.SolveResponse{Solution: instance.FromSolution(sol), Cell: cell, ElapsedMs: elapsedMs}) //nolint:errcheck // see above
	return buf.Bytes()
}

// allocsPer counts the heap allocations of one call of f, as the mean
// over a loop after one warm-up call. The client runs on one core and no
// other goroutine allocates meanwhile, so the count repeats exactly.
func allocsPer(f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < allocReps; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / allocReps
}

// httpRun is the outcome of the traced run's HTTP pass.
type httpRun struct {
	roundtrip, residual []time.Duration
	before, after       scrape
	spans               []span
	sent, failed        int
	errs                []error
}

// httpPass replays warm-up and reqs serially over one connection to a
// fresh wfserve, checking each answer against the in-process pass.
func httpPass(cfg config, w *workload, warm, reqs []*request, tr []traced) (httpRun, error) {
	var h httpRun
	srv, err := startWfserve(cfg.wfserve, w.flags())
	if err != nil {
		return h, err
	}
	defer func() {
		if srv != nil {
			srv.stop() //nolint:errcheck // error path; the success path stops and checks
		}
	}()
	c := newHTTPClient(1)
	if err := srv.healthy(c); err != nil {
		return h, err
	}
	wp := drive(c, srv.base, w.path, warm, nil, 1, time.Hour)
	h.sent, h.failed, h.errs = wp.sent, wp.failed, wp.errs
	if h.before, err = srv.scrapeMetrics(c, opOf(w)); err != nil {
		return h, err
	}
	url := srv.base + w.path
	var buf bytes.Buffer
	base := time.Now()
	for i, req := range reqs {
		t0 := time.Now()
		ex := post(c, url, req.body, &buf)
		rt := time.Since(t0)
		h.sent++
		h.spans = append(h.spans, span{"http", i, "http.roundtrip", "", int64(t0.Sub(base)), int64(t0.Sub(base) + rt)})
		err := cheapCheck(w.path, ex, buf.Bytes())
		if err == nil {
			err = sameCosts(w, buf.Bytes(), tr[i].costs)
		}
		if err != nil {
			h.failed++
			if len(h.errs) < 3 {
				h.errs = append(h.errs, fmt.Errorf("request %d: %w", i, err))
			}
			continue
		}
		h.roundtrip = append(h.roundtrip, rt)
		h.residual = append(h.residual, rt-tr[i].sum())
	}
	if h.after, err = srv.scrapeMetrics(c, opOf(w)); err != nil {
		return h, err
	}
	err = srv.stop()
	srv = nil
	return h, err
}

// sameCosts requires the served costs to equal the in-process pass's.
func sameCosts(w *workload, body []byte, want []mapping.Cost) error {
	var got []mapping.Cost
	if w.path == "/v1/pareto" {
		points, _, err := parseSweep(body)
		if err != nil {
			return err
		}
		for _, p := range points {
			got = append(got, mapping.Cost{Period: p.Period, Latency: p.Latency})
		}
	} else {
		var resp server.SolveResponse
		if err := instance.DecodeStrict(bytes.NewReader(body), &resp); err != nil {
			return err
		}
		got = []mapping.Cost{{Period: resp.Solution.Period, Latency: resp.Solution.Latency}}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("served costs %v, in-process %v", got, want)
	}
	return nil
}

// writeSpans writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
