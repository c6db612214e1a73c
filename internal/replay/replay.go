package replay

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Timing selects how replay paces requests.
type Timing string

const (
	// TimingCompressed issues each request as soon as the previous one
	// completes — maximum-throughput mode, and the deterministic mode
	// used in CI.
	TimingCompressed Timing = "compressed"
	// TimingReal reproduces the recorded arrival offsets (scaled by
	// Options.Speed), recreating the original traffic shape.
	TimingReal Timing = "real"
)

// Options configures a replay run. The zero value replays compressed
// with the default gap tolerance.
type Options struct {
	// Timing defaults to TimingCompressed.
	Timing Timing
	// Speed scales real-timing offsets: 2 replays twice as fast.
	// Ignored under compressed timing. Defaults to 1.
	Speed float64
	// GapTolerance bounds how much worse a replayed anytime gap may be
	// than the recorded one before it counts as a mismatch.
	// Defaults to DefaultGapTolerance.
	GapTolerance float64
	// JobPollInterval and JobPollTimeout pace the polling that brings a
	// replayed job snapshot to terminal state when the recording was
	// terminal. Defaults: 5ms / 30s.
	JobPollInterval time.Duration
	JobPollTimeout  time.Duration
	// Client is the HTTP client to use; defaults to a fresh client with
	// no timeout (deadlines come from ctx).
	Client *http.Client
}

// DefaultGapTolerance is the slack allowed on anytime optimality gaps:
// a replayed gap within recorded+0.25 still certifies the same
// quality band under a time-sliced budget.
const DefaultGapTolerance = 0.25

// Stats is the outcome of a replay run.
type Stats struct {
	// Events is the number of trace events replayed.
	Events int `json:"events"`
	// Mismatches counts events with at least one Diff; Diffs lists every
	// field-level divergence.
	Mismatches int    `json:"mismatches"`
	Diffs      []Diff `json:"diffs,omitempty"`
	// SkippedVolatile counts events whose bodies were too volatile to
	// diff strictly (live job snapshots, /metrics, anytime streams with
	// differing point counts).
	SkippedVolatile int `json:"skippedVolatile"`
	// RateLimitDivergences counts events where exactly one side was 429:
	// admission is clock-driven, so these are reported apart from solver
	// mismatches.
	RateLimitDivergences int `json:"rateLimitDivergences"`
	// RateLimited counts replayed responses that came back 429.
	RateLimited int `json:"rateLimited"`
	// JobPolls counts the extra GETs of job snapshots that were terminal
	// in the recording but still running in the replay (pollTerminal
	// re-GETs them every JobPollInterval): how many there are depends on
	// how fast the replayed server finishes its jobs.
	JobPolls int `json:"jobPolls"`
	// StatusCounts histograms the replayed HTTP statuses.
	StatusCounts map[string]int `json:"statusCounts"`
	// DurationMs and ThroughputRPS measure the replay itself.
	DurationMs    float64 `json:"durationMs"`
	ThroughputRPS float64 `json:"throughputRps"`
	// LatencyP50Ms / LatencyP99Ms summarize per-request round-trip times.
	LatencyP50Ms float64 `json:"latencyP50Ms"`
	LatencyP99Ms float64 `json:"latencyP99Ms"`
}

// Replay re-issues every event of tr against target (a base URL like
// "http://127.0.0.1:8080"), serially and in trace order, and diffs each
// response against the recording. A non-nil error means the replay
// itself could not run (transport failure, bad options); response
// divergences are reported in Stats, not as errors.
func Replay(ctx context.Context, tr *Trace, target string, opts Options) (*Stats, error) {
	if opts.Timing == "" {
		opts.Timing = TimingCompressed
	}
	if opts.Timing != TimingCompressed && opts.Timing != TimingReal {
		return nil, fmt.Errorf("unknown timing mode %q", opts.Timing)
	}
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	if opts.GapTolerance <= 0 {
		opts.GapTolerance = DefaultGapTolerance
	}
	if opts.JobPollInterval <= 0 {
		opts.JobPollInterval = 5 * time.Millisecond
	}
	if opts.JobPollTimeout <= 0 {
		opts.JobPollTimeout = 30 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	target = strings.TrimSuffix(target, "/")

	stats := &Stats{StatusCounts: make(map[string]int)}
	latencies := make([]float64, 0, len(tr.Events))
	start := time.Now()

	// Replayed job ids differ from recorded ones; map recorded id →
	// replayed id so GET /v1/jobs/{id} events hit the job their POST
	// created in this run.
	jobIDs := make(map[string]string)

	for i := range tr.Events {
		ev := &tr.Events[i]
		if opts.Timing == TimingReal {
			due := start.Add(time.Duration(ev.OffsetMs / opts.Speed * float64(time.Millisecond)))
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}

		status, body, rt, err := issue(ctx, client, target, ev, jobIDs)
		if err != nil {
			return nil, fmt.Errorf("replaying event %d (%s %s): %w", ev.Seq, ev.Method, ev.Path, err)
		}
		latencies = append(latencies, float64(rt)/float64(time.Millisecond))

		// Recorded-terminal job snapshots may still be running in the
		// replay (async jobs race the poll); poll the same URL until the
		// replayed job is terminal too, then diff terminal vs terminal.
		if ev.Method == http.MethodGet && strings.HasPrefix(ev.Path, "/v1/jobs/") &&
			status == http.StatusOK && jobTerminal(ev.Response) && !jobTerminal(body) {
			status, body, err = pollTerminal(ctx, client, target, ev, jobIDs, opts, &stats.JobPolls)
			if err != nil {
				return nil, fmt.Errorf("polling job for event %d: %w", ev.Seq, err)
			}
		}

		recordJobID(ev, body, jobIDs)

		stats.Events++
		stats.StatusCounts[fmt.Sprint(status)]++
		if status == http.StatusTooManyRequests {
			stats.RateLimited++
		}
		out := diffEvent(ev, status, body, opts.GapTolerance)
		switch {
		case out.rateDiverged:
			stats.RateLimitDivergences++
		case len(out.diffs) > 0:
			stats.Mismatches++
			stats.Diffs = append(stats.Diffs, out.diffs...)
		}
		if out.skipped {
			stats.SkippedVolatile++
		}
	}

	elapsed := time.Since(start)
	stats.DurationMs = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		stats.ThroughputRPS = float64(stats.Events) / elapsed.Seconds()
	}
	stats.LatencyP50Ms = percentile(latencies, 0.50)
	stats.LatencyP99Ms = percentile(latencies, 0.99)
	return stats, nil
}

// issue sends one event's request and reads the full response.
func issue(ctx context.Context, client *http.Client, target string, ev *Event, jobIDs map[string]string) (status int, body string, rt time.Duration, err error) {
	path := rewriteJobPath(ev.Path, jobIDs)
	var reqBody io.Reader
	if ev.Request != "" {
		reqBody = strings.NewReader(ev.Request)
	}
	req, err := http.NewRequestWithContext(ctx, ev.Method, target+path, reqBody)
	if err != nil {
		return 0, "", 0, err
	}
	if ev.Request != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if ev.Client != "" {
		req.Header.Set("X-Client-Id", ev.Client)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		return 0, "", 0, err
	}
	return resp.StatusCode, string(b), time.Since(t0), nil
}

// pollTerminal re-GETs a job snapshot until it reaches a terminal state,
// adding each GET to *polls.
func pollTerminal(ctx context.Context, client *http.Client, target string, ev *Event, jobIDs map[string]string, opts Options, polls *int) (int, string, error) {
	deadline := time.Now().Add(opts.JobPollTimeout)
	for {
		*polls++
		status, body, _, err := issue(ctx, client, target, ev, jobIDs)
		if err != nil {
			return 0, "", err
		}
		if status != http.StatusOK || jobTerminal(body) {
			return status, body, nil
		}
		if time.Now().After(deadline) {
			return status, body, nil // diff will report the live snapshot
		}
		select {
		case <-time.After(opts.JobPollInterval):
		case <-ctx.Done():
			return 0, "", ctx.Err()
		}
	}
}

// recordJobID maps a recorded job id to the one the replayed server
// issued, keyed off successful job-create responses.
func recordJobID(ev *Event, replayedBody string, jobIDs map[string]string) {
	if ev.Method != http.MethodPost || !strings.HasPrefix(ev.Path, "/v1/jobs") {
		return
	}
	recID := jobIDFrom(ev.Response)
	gotID := jobIDFrom(replayedBody)
	if recID != "" && gotID != "" {
		jobIDs[recID] = gotID
	}
}

func jobIDFrom(body string) string {
	vals, ok := parseNDJSON(body)
	if !ok || len(vals) != 1 {
		return ""
	}
	m, ok := vals[0].(map[string]any)
	if !ok {
		return ""
	}
	id, _ := m["id"].(string)
	return id
}

// rewriteJobPath substitutes a recorded job id in the path with its
// replayed counterpart.
func rewriteJobPath(path string, jobIDs map[string]string) string {
	const prefix = "/v1/jobs/"
	if !strings.HasPrefix(path, prefix) {
		return path
	}
	rest := path[len(prefix):]
	id, suffix, _ := strings.Cut(rest, "/")
	if mapped, ok := jobIDs[id]; ok {
		if suffix != "" {
			return prefix + mapped + "/" + suffix
		}
		return prefix + mapped
	}
	return path
}

// percentile returns the pth percentile (0..1) of xs, 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
