package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a keep-alive client holding at most conns
// connections, so a closed loop of conns workers reuses them.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// exchange is the outcome of one request.
type exchange struct {
	status int
	// first is the time to the first result: the whole response of a
	// solve, the first front point of a sweep.
	first time.Duration
	err   error
}

// statusPrefix starts every non-solution line of a /v1/pareto stream.
var statusPrefix = []byte(`{"status"`)

// post sends one request and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) exchange {
	buf.Reset()
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	ex := exchange{status: resp.StatusCode}
	if resp.Header.Get("Content-Type") != "application/x-ndjson" {
		_, ex.err = buf.ReadFrom(resp.Body)
		ex.first = time.Since(start)
		return ex
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		buf.Write(line)
		if ex.first == 0 && len(line) > 0 && !bytes.HasPrefix(line, statusPrefix) {
			ex.first = time.Since(start)
		}
		switch err {
		case nil, bufio.ErrBufferFull:
		case io.EOF:
			return ex
		default:
			ex.err = err
			return ex
		}
	}
}

// Cheap per-response checks made during the measured phase: the status,
// the start of a solve response and the feasibility flag, or the
// terminal line of a sweep.
var (
	solvePrefix    = []byte("{\n  \"solution\": {")
	feasibleMarker = []byte(`"feasible": true`)
	completeLine   = []byte(`{"status":"complete"`)
)

func cheapCheck(path string, ex exchange, body []byte) error {
	if ex.err != nil {
		return ex.err
	}
	if ex.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", ex.status, body)
	}
	if path == "/v1/pareto" {
		last := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n')
		if ex.first == 0 || !bytes.HasPrefix(body[last+1:], completeLine) {
			return fmt.Errorf("sweep stream without points or a complete terminal line: %.200s", body[last+1:])
		}
		return nil
	}
	if !bytes.HasPrefix(body, solvePrefix) || !bytes.Contains(body, feasibleMarker) {
		return fmt.Errorf("unexpected solve response: %.200s", body)
	}
	return nil
}

// phase is the outcome of driving a request sequence.
type phase struct {
	sent, failed int
	wall         time.Duration
	// lat and first hold the round trip and time to first result of each
	// successful request.
	lat, first []time.Duration
	// bodies holds the kept response bodies by request index.
	bodies [][]byte
	errs   []error // the first few failures
}

// drive sends reqs in a closed loop over conns connections: each worker
// sends its next request as soon as its previous one completed. Requests
// not sent by the cutoff are dropped; a run that far over its nominal
// length is broken anyway.
func drive(c *http.Client, base, path string, reqs []*request, keep []bool, conns int, cutoff time.Duration) phase {
	n := len(reqs)
	lat := make([]time.Duration, n)
	first := make([]time.Duration, n)
	failed := make([]error, n)
	bodies := make([][]byte, n)
	url := base + path
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(cutoff)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n || time.Now().After(stopAt) {
					return
				}
				t0 := time.Now()
				ex := post(c, url, reqs[i].body, &buf)
				lat[i] = time.Since(t0)
				first[i] = ex.first
				if err := cheapCheck(path, ex, buf.Bytes()); err != nil {
					failed[i] = err
					continue
				}
				if keep != nil && keep[i] {
					bodies[i] = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start), bodies: bodies}
	for i := 0; i < n; i++ {
		if lat[i] == 0 {
			continue // not sent before the cutoff
		}
		p.sent++
		if failed[i] != nil {
			p.failed++
			if len(p.errs) < 3 {
				p.errs = append(p.errs, fmt.Errorf("request %d: %w", i, failed[i]))
			}
			continue
		}
		p.lat = append(p.lat, lat[i])
		p.first = append(p.first, first[i])
	}
	return p
}
