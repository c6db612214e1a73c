package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/instance"
)

// exactSweepInstance is the staged instance of the exact pipeline sweep,
// the front path: a 7-stage heterogeneous pipeline on 10 heterogeneous
// processors with data-parallelism, solved exhaustively under a raised
// limit. One bi-criteria pass proves its 8-point front, and each point's
// bounded solve is then a walk over the pass's lists — so the points are
// flushed together, right after the pass.
const exactSweepInstance = `{
	"pipeline": {"weights": [14, 4, 2, 4, 7, 3, 9]},
	"platform": {"speeds": [5, 4, 3, 3, 2, 2, 1, 1, 4, 2]},
	"allowDataParallel": true`

// sweepRung is one staging instance of a streaming test: the instance
// body (without its closing brace) and the server options that solve it
// exactly.
type sweepRung struct {
	instance string
	opts     core.Options
}

// forkJoinFrontRung is a staged instance of a front path whose points
// stream out one by one: a fork-join with leaves [3, 6, 6, 2, 9, 7] on 5
// processors of speeds 1, 4, 1, 2 and 4, without data-parallelism,
// solved exhaustively under a raised limit. Each point after the pass is
// one bounded partition scan, which stops at the first mapping reaching
// the optimum the pass proved.
var forkJoinFrontRung = sweepRung{
	instance: `{
	"forkjoin": {"root": 5, "join": 10, "weights": [3, 6, 6, 2, 9, 7]},
	"platform": {"speeds": [1, 4, 1, 2, 4]}`,
	opts: core.Options{MaxExhaustiveForkStages: 8},
}

// walkedSweepSteps are the steps of the walked sweep's staging DAGs. Every
// prefix from four steps on is an irreducible series-parallel DAG: c, d, f
// and g each join two predecessors that are ordered themselves.
var walkedSweepSteps = []string{
	`{"name": "a", "weight": 2}`,
	`{"name": "b", "weight": 3, "after": ["a"]}`,
	`{"name": "c", "weight": 1, "after": ["a", "b"]}`,
	`{"name": "d", "weight": 2, "after": ["b", "c"]}`,
	`{"name": "e", "weight": 4, "after": ["d"]}`,
	`{"name": "f", "weight": 2, "after": ["d", "e"]}`,
	`{"name": "g", "weight": 3, "after": ["e", "f"]}`,
	`{"name": "h", "weight": 1, "after": ["f", "g"]}`,
	`{"name": "i", "weight": 2, "after": ["g", "h"]}`,
}

// walkedSweepRung is a staged instance of the exact path without a front
// pass: an irreducible series-parallel DAG of the first steps of
// walkedSweepSteps on 5 heterogeneous processors, solved exhaustively
// under a raised step limit. The sweep walks the two bounded solves, so
// each point is proven by its own three solves: with 8 steps the first
// of its 15 points arrives early in the sweep, and the others follow one
// by one.
func walkedSweepRung(steps int) sweepRung {
	return sweepRung{
		instance: `{
	"sp": {"steps": [
		` + strings.Join(walkedSweepSteps[:steps], ",\n\t\t") + `
	]},
	"platform": {"speeds": [5, 4, 3, 2, 1]}`,
		opts: core.Options{MaxExhaustiveForkStages: steps},
	}
}

// newFirstPointDeadlineServer serves a server with the given options on
// request contexts whose deadline the test fires: it expires, as
// context.DeadlineExceeded, the moment the response's first point line is
// flushed. The deadline is staged on the run's own progress, so it lands
// after the first point and before the next solve on any machine.
func newFirstPointDeadlineServer(t *testing.T, opts core.Options) *httptest.Server {
	t.Helper()
	s := New(Config{Options: opts})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := newFiredDeadline(r.Context())
		s.ServeHTTP(&fireOnPointFlush{ResponseWriter: w, fire: ctx.fire}, r.WithContext(ctx))
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts
}

// firedDeadline is a request context that expires, with
// context.DeadlineExceeded, when fire is called. It implements AfterFunc,
// so the contexts the server derives from it expire inside fire itself.
type firedDeadline struct {
	context.Context
	done chan struct{}

	mu     sync.Mutex
	afters map[int]func() // nil once fired
	next   int
}

func newFiredDeadline(parent context.Context) *firedDeadline {
	return &firedDeadline{Context: parent, done: make(chan struct{}), afters: map[int]func(){}}
}

func (c *firedDeadline) Done() <-chan struct{} { return c.done }

func (c *firedDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// AfterFunc arranges to call f when the context fires, as
// context.AfterFunc does for the standard contexts.
func (c *firedDeadline) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.afters == nil {
		go f()
		return func() bool { return false }
	}
	id := c.next
	c.next++
	c.afters[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.afters[id]
		delete(c.afters, id)
		return ok
	}
}

// fire expires the context and, before it returns, every context derived
// from it.
func (c *firedDeadline) fire() {
	c.mu.Lock()
	afters := c.afters
	c.afters = nil
	if afters != nil {
		close(c.done)
	}
	c.mu.Unlock()
	for _, f := range afters {
		f()
	}
}

// fireOnPointFlush calls fire after flushing a point line, a line without
// a "status" field.
type fireOnPointFlush struct {
	http.ResponseWriter
	fire func()
	line []byte // written since the last flush
}

func (w *fireOnPointFlush) Write(b []byte) (int, error) {
	w.line = append(w.line, b...)
	return w.ResponseWriter.Write(b)
}

func (w *fireOnPointFlush) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if len(w.line) > 0 && !bytes.Contains(w.line, []byte(`"status"`)) {
		w.fire()
	}
	w.line = w.line[:0]
}

// referenceSweep streams the rung's whole front from a fresh server.
func referenceSweep(t *testing.T, rung sweepRung) []timedLine {
	t.Helper()
	_, ref := newTestServer(t, Config{Options: rung.opts})
	code, lines, _ := streamLines(t, ref.URL, rung.instance+`, "timeoutMs": 120000}`)
	if code != http.StatusOK {
		t.Fatalf("reference sweep: status = %d", code)
	}
	sols, _ := parseStream(t, lines)
	if len(sols) < 2 {
		t.Fatalf("reference sweep produced %d points, need >= 2", len(sols))
	}
	return sols
}

// pacedSweepInstance is a small NP-hard staging instance with the
// exhaustive limits lowered (newPacedServer) so the anytime portfolio
// owns every bounded solve; its sweep takes long enough that a short
// deadline reliably fires before the first point on any machine.
const pacedSweepInstance = `{
	"pipeline": {"weights": [8, 4, 4]},
	"platform": {"speeds": [2, 1, 1]},
	"allowDataParallel": true`

func newPacedServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Options = core.Options{MaxExhaustivePipelineProcs: 2, MaxExhaustiveForkProcs: 2}
	s, ts := newTestServer(t, cfg)
	return s, ts.URL
}

// streamLines POSTs a pareto request and records each NDJSON line with
// its arrival time.
type timedLine struct {
	at   time.Duration
	text string
}

func streamLines(t *testing.T, url, body string) (int, []timedLine, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url+"/v1/pareto", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []timedLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, timedLine{at: time.Since(start), text: sc.Text()})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines, time.Since(start)
}

// parseStream splits timed lines into solution lines (keeping their
// arrival times) and status lines, verifying every solution line
// strictly decodes as SolutionJSON via splitStream.
func parseStream(t *testing.T, lines []timedLine) (sols []timedLine, statuses []StreamStatus) {
	t.Helper()
	var body []byte
	for _, l := range lines {
		body = append(body, l.text...)
		body = append(body, '\n')
	}
	_, statuses = splitStream(t, body)
	for _, l := range lines {
		if !strings.Contains(l.text, `"status"`) {
			sols = append(sols, l)
		}
	}
	return sols, statuses
}

// TestParetoFirstByteBeforeSweepCompletes is the tentpole's acceptance
// test: on a staged slow exact sweep, the first NDJSON line must reach
// the client well before the sweep completes — the sweep is delivered
// incrementally, not buffered. The staging instance is the walked
// sweep's irreducible SP, whose walk proves its 15 points one by one (a
// pipeline's front pass proves every point at once, so those points
// arrive together). On the long front the first point lands in
// a small fraction of the sweep; the spread check is that the points
// after the first still stream in: the first arrives at least a quarter
// of the sweep before the last.
func TestParetoFirstByteBeforeSweepCompletes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rung   sweepRung
		spread bool
	}{
		{"long-front", walkedSweepRung(8), false},
		{"points-spread", walkedSweepRung(8), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Options: tc.rung.opts})
			code, lines, total := streamLines(t, ts.URL, tc.rung.instance+`, "timeoutMs": 120000}`)
			if code != http.StatusOK {
				t.Fatalf("status = %d", code)
			}
			sols, statuses := parseStream(t, lines)
			if len(sols) < 2 {
				t.Fatalf("staged sweep produced %d points, need >= 2", len(sols))
			}
			if n := len(statuses); n == 0 || statuses[n-1].Status != StreamStatusComplete {
				t.Fatalf("missing terminal complete line: %+v", statuses)
			}
			first, last := sols[0].at, sols[len(sols)-1].at
			if !tc.spread && first >= total/2 {
				t.Errorf("first point arrived at %v of a %v sweep — streaming is buffered, want first-byte << total", first, total)
			}
			if tc.spread && last-first < total/4 {
				t.Errorf("first point arrived at %v, last at %v of a %v sweep — streaming is buffered, want the points spread out", first, last, total)
			}
			// Increasing-period order across the delivered points.
			assertIncreasingPeriods(t, sols)
		})
	}
}

// checkTerminalDeadline asserts the terminal-line contract of a sweep
// cut by its deadline before its last point: the last status line
// reports deadline expiry, one unexplored unit (the pass or the walk
// step that was cut), the exact number of points delivered, and the
// structured error body.
func checkTerminalDeadline(t *testing.T, statuses []StreamStatus, points int) {
	t.Helper()
	if len(statuses) == 0 {
		t.Fatal("stream ended without a terminal status line")
	}
	term := statuses[len(statuses)-1]
	if term.Status != StreamStatusDeadlineExceeded {
		t.Fatalf("terminal status = %q, want %q (%+v)", term.Status, StreamStatusDeadlineExceeded, term)
	}
	if term.Unexplored != 1 || term.Unexplored != term.TotalCandidates-term.Explored {
		t.Errorf("terminal line reports unexplored %d of %d (explored %d), want the one unit that was cut",
			term.Unexplored, term.TotalCandidates, term.Explored)
	}
	if term.Points != points {
		t.Errorf("terminal line counts %d points, stream carried %d", term.Points, points)
	}
	if term.Error == nil || term.Error.Kind != ErrKindDeadlineExceeded {
		t.Errorf("terminal line error = %+v, want kind %q", term.Error, ErrKindDeadlineExceeded)
	}
}

// TestParetoDeadlineMidSweep is the deadline-expiry test for a deadline
// landing after the first point: the client gets an ordered partial
// front whose every line parses as SolutionJSON, closed by a terminal
// status line reporting the walk step that was cut —
// never a bare 504 once a point is on the wire. The deadline fires when
// the timed run flushes its first point, so the test stages "mid-sweep"
// on any machine speed.
func TestParetoDeadlineMidSweep(t *testing.T) {
	rung := walkedSweepRung(7)
	sols := referenceSweep(t, rung)

	timed := newFirstPointDeadlineServer(t, rung.opts)
	code, lines, _ := streamLines(t, timed.URL, rung.instance+`, "timeoutMs": 120000}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d with a mid-sweep deadline", code)
	}
	partial, statuses := parseStream(t, lines)
	if len(partial) == 0 {
		t.Fatal("the deadline cut the sweep before any point")
	}
	if len(partial) >= len(sols) {
		t.Fatalf("the deadline did not cut the sweep (got all %d points)", len(partial))
	}
	assertIncreasingPeriods(t, partial)
	// The partial front is a prefix of the reference front.
	for i := range partial {
		if partial[i].text != sols[i].text {
			t.Errorf("partial front diverges from the full front at point %d:\n%s\n%s", i, partial[i].text, sols[i].text)
		}
	}
	checkTerminalDeadline(t, statuses, len(partial))
}

// TestParetoDeadlineAfterFrontPass is the deadline-expiry test of the
// front path: a deadline landing between the front's points leaves an
// ordered prefix of the front, closed by a deadline-exceeded terminal
// line that reports the sweep's one unit, the pass, explored — the pass
// proved the whole front before the first point went out, so nothing is
// left unexplored, only unsent.
func TestParetoDeadlineAfterFrontPass(t *testing.T) {
	rung := forkJoinFrontRung
	sols := referenceSweep(t, rung)

	timed := newFirstPointDeadlineServer(t, rung.opts)
	code, lines, _ := streamLines(t, timed.URL, rung.instance+`, "timeoutMs": 120000}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d with a mid-sweep deadline", code)
	}
	partial, statuses := parseStream(t, lines)
	if len(partial) == 0 || len(partial) >= len(sols) {
		t.Fatalf("the deadline left %d of %d points", len(partial), len(sols))
	}
	for i := range partial {
		if partial[i].text != sols[i].text {
			t.Errorf("partial front diverges from the full front at point %d:\n%s\n%s", i, partial[i].text, sols[i].text)
		}
	}
	term := statuses[len(statuses)-1]
	if term.Status != StreamStatusDeadlineExceeded || term.Error == nil || term.Error.Kind != ErrKindDeadlineExceeded {
		t.Fatalf("terminal line %+v, want a deadline-exceeded status and error", term)
	}
	if term.Points != len(partial) || term.TotalCandidates != 1 || term.Explored != 1 || term.Unexplored != 0 {
		t.Errorf("terminal line %+v after %d points, want the pass explored", term, len(partial))
	}
}

// TestParetoHeartbeatsKeepSlowStreamAlive: a sweep whose first solves
// outlast the deadline still produces a live, well-formed stream:
// heartbeat status lines commit the response and the deadline lands
// in-stream as a terminal status line — not a 504 — even with zero
// points delivered.
func TestParetoHeartbeatsKeepSlowStreamAlive(t *testing.T) {
	_, ts := newSlowServer(t, Config{StreamHeartbeat: 60 * time.Millisecond})
	code, lines, _ := streamLines(t, ts.URL, strings.TrimSuffix(strings.TrimSpace(slowInstance), "}")+`, "timeoutMs": 600}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want the heartbeat-committed 200", code)
	}
	sols, statuses := parseStream(t, lines)
	if len(sols) != 0 {
		t.Fatalf("expected no points within the deadline, got %d", len(sols))
	}
	hb := 0
	for _, st := range statuses {
		if st.Status == StreamStatusHeartbeat {
			hb++
		}
	}
	if hb < 2 {
		t.Errorf("got %d heartbeat lines over a 600ms wait at 60ms interval, want >= 2", hb)
	}
	checkTerminalDeadline(t, statuses, 0)
}

// TestParetoDeadlineBeforeAnyLineIs504: with no heartbeat and a deadline
// well before the first point, nothing has committed the stream, so the
// client gets the plain structured deadline error — the legacy contract
// for sweeps that never produced anything.
func TestParetoDeadlineBeforeAnyLineIs504(t *testing.T) {
	_, url := newPacedServer(t, Config{})
	resp, body := postJSON(t, url+"/v1/pareto", pacedSweepInstance+`, "budgetMs": 2400, "timeoutMs": 150}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Kind != ErrKindDeadlineExceeded {
		t.Errorf("kind = %q, want %q", er.Error.Kind, ErrKindDeadlineExceeded)
	}
}

// TestParetoStreamMatchesBatchFront: the streamed front must carry
// exactly the same solution documents, in the same order, as the
// engine's slice-returning ParetoFront on the same randomized corpus —
// the byte-level equality contract between the two delivery modes.
func TestParetoStreamMatchesBatchFront(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	bodies := []string{
		`{"pipeline": {"weights": [14, 4, 2, 4]}, "platform": {"speeds": [1, 1, 1]}, "allowDataParallel": true`,
		`{"pipeline": {"weights": [5, 3, 8, 2]}, "platform": {"speeds": [3, 2, 1]}, "allowDataParallel": true`,
		`{"fork": {"root": 2, "weights": [1, 3, 2]}, "platform": {"speeds": [1, 2]}`,
		`{"forkjoin": {"root": 2, "join": 1, "weights": [3, 1]}, "platform": {"speeds": [2, 1, 1]}`,
	}
	for i, b := range bodies {
		resp, body := postJSON(t, ts.URL+"/v1/pareto", b+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status = %d, body %s", i, resp.StatusCode, body)
		}
		sols, _ := splitStream(t, body)

		var req SolveRequest
		if err := json.NewDecoder(strings.NewReader(b + `}`)).Decode(&req); err != nil {
			t.Fatal(err)
		}
		if req.Instance.Objective == "" {
			req.Instance.Objective = "min-period"
		}
		pr, err := req.Instance.Problem()
		if err != nil {
			t.Fatal(err)
		}
		front, err := srv.Engine().ParetoFront(context.Background(), pr, srv.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(front) != len(sols) {
			t.Fatalf("case %d: stream carried %d points, ParetoFront returned %d", i, len(sols), len(front))
		}
		for j, sol := range front {
			streamJSON, err := json.Marshal(sols[j])
			if err != nil {
				t.Fatal(err)
			}
			sliceJSON, err := json.Marshal(instance.FromSolution(sol))
			if err != nil {
				t.Fatal(err)
			}
			if string(streamJSON) != string(sliceJSON) {
				t.Errorf("case %d point %d: stream %s != slice %s", i, j, streamJSON, sliceJSON)
			}
		}
	}
}

// assertIncreasingPeriods checks the period order invariant of a
// streamed (partial) front: non-decreasing periods (exact fronts are
// strictly increasing; heuristic/anytime fronts may tighten two latency
// levels to the same period) and every point feasible.
func assertIncreasingPeriods(t *testing.T, sols []timedLine) {
	t.Helper()
	prev := -1.0
	for i, l := range sols {
		var p struct {
			Period   float64 `json:"period"`
			Feasible bool    `json:"feasible"`
		}
		if err := json.Unmarshal([]byte(l.text), &p); err != nil {
			t.Fatal(err)
		}
		if !p.Feasible || p.Period < prev {
			t.Errorf("point %d breaks the front order: feasible=%v period=%g after %g", i, p.Feasible, p.Period, prev)
		}
		prev = p.Period
	}
}
