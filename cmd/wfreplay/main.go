// Command wfreplay replays a wfserve traffic trace (recorded with
// `wfserve -record`) against a live server and diffs every response
// against the recording — the differential-regression half of the
// record/replay harness.
//
// Usage:
//
//	wfreplay -trace trace.ndjson [-target http://127.0.0.1:8080]
//	         [-timing compressed|real] [-speed 1.0]
//	         [-tolerance 0.25] [-json]
//
// Requests are re-issued serially in trace order with the recorded
// X-Client-Id, so each lands in the same admission bucket it was
// recorded under. -timing compressed (the default) fires each request
// as soon as the previous completes; -timing real reproduces the
// recorded arrival offsets scaled by -speed. Responses from exact cells
// must match the recording byte-for-byte after stripping volatile
// fields (elapsed times, cache counters); anytime solutions pass when
// the replayed optimality gap is within -tolerance of the recorded one.
//
// The exit status is 0 when every event matched, 1 on any mismatch, and
// 2 on usage or transport errors. Stats (throughput, latency
// percentiles, status histogram, 429 counts) print to stdout — human
// readable by default, a JSON document with -json.
//
// Try it:
//
//	wfserve -record /tmp/trace.ndjson &
//	curl -s localhost:8080/v1/solve -H 'X-Client-Id: demo' -d '{
//	  "pipeline": {"weights": [14, 4, 2, 4]},
//	  "platform": {"speeds": [1, 1, 1]},
//	  "allowDataParallel": true
//	}'
//	kill %1 && wait
//	wfserve -addr :8081 & sleep 0.2
//	wfreplay -trace /tmp/trace.ndjson -target http://127.0.0.1:8081
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repliflow/internal/replay"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the server to replay against")
	timing := fs.String("timing", "compressed", "request pacing: compressed (back-to-back) or real (recorded offsets)")
	speed := fs.Float64("speed", 1, "real-timing speedup factor (2 = twice as fast)")
	tolerance := fs.Float64("tolerance", replay.DefaultGapTolerance, "allowed worsening of anytime optimality gaps vs the recording")
	jsonOut := fs.Bool("json", false, "print stats as a JSON document instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "wfreplay: -trace is required")
		fs.Usage()
		return 2
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "wfreplay:", err)
		return 2
	}
	tr, err := replay.DecodeTrace(f)
	f.Close() //nolint:errcheck
	if err != nil {
		fmt.Fprintln(stderr, "wfreplay:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats, err := replay.Replay(ctx, tr, *target, replay.Options{
		Timing:       replay.Timing(*timing),
		Speed:        *speed,
		GapTolerance: *tolerance,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wfreplay:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintln(stderr, "wfreplay:", err)
			return 2
		}
	} else {
		printStats(stdout, stats)
	}
	if stats.Mismatches > 0 {
		fmt.Fprintf(stderr, "wfreplay: %d of %d events diverged from the recording\n", stats.Mismatches, stats.Events)
		return 1
	}
	return 0
}

func printStats(w io.Writer, s *replay.Stats) {
	fmt.Fprintf(w, "events           %d\n", s.Events)
	fmt.Fprintf(w, "mismatches       %d\n", s.Mismatches)
	fmt.Fprintf(w, "skipped volatile %d\n", s.SkippedVolatile)
	fmt.Fprintf(w, "429 divergences  %d\n", s.RateLimitDivergences)
	fmt.Fprintf(w, "429 responses    %d\n", s.RateLimited)
	fmt.Fprintf(w, "job polls        %d\n", s.JobPolls)
	fmt.Fprintf(w, "duration         %.1f ms\n", s.DurationMs)
	fmt.Fprintf(w, "throughput       %.1f req/s\n", s.ThroughputRPS)
	fmt.Fprintf(w, "latency p50/p99  %.2f / %.2f ms\n", s.LatencyP50Ms, s.LatencyP99Ms)
	statuses := make([]string, 0, len(s.StatusCounts))
	for code := range s.StatusCounts {
		statuses = append(statuses, code)
	}
	sort.Strings(statuses)
	for _, code := range statuses {
		fmt.Fprintf(w, "status %s       %d\n", code, s.StatusCounts[code])
	}
	for _, d := range s.Diffs {
		fmt.Fprintf(w, "diff: event %d %s field %q: recorded %s, replayed %s\n",
			d.Seq, d.Path, d.Field, d.Recorded, d.Replayed)
	}
}
