// Command bench is the end-to-end benchmark of wfserve. For one workload
// it starts the wfserve binary on a loopback port with default flags,
// drives it in a closed loop of a fixed, seeded request sequence, checks
// every answer, and prints each metric as "workload metric value unit",
// followed by one JSON result line. With --trace 1 it instead replays the
// start of the workload layer by layer (trace.go) and reports per-layer
// metrics. bench/run.sh builds both binaries and runs it; see README.md.
//
//	wfbench -wfserve PATH --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	// seconds fixes the request count: seconds × the workload's nominal
	// rate, so the measured phase lasts about this long on the reference
	// machine.
	seconds  float64
	trace    bool
	traceDir string
	wfserve  string
	// setups is how many times wfserve is started and warmed up; setup_s
	// is their median and the last one serves the measured phase.
	setups int
}

func main() {
	cfg := config{setups: 9}
	flag.StringVar(&cfg.workload, "workload", "", "workload: solve-hot, solve-churn, solve-nphard or pareto-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated requests")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "nominal length of the measured phase; fixes the request count")
	trace := flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory for the span files of a traced run")
	flag.StringVar(&cfg.wfserve, "wfserve", ".bench_build/wfserve", "wfserve binary to benchmark")
	flag.Parse()
	cfg.trace = *trace == 1

	// One core for the client: on two cores it competes with the server
	// (README.md, "Client core").
	runtime.GOMAXPROCS(1)
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line ending every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints metrics as "workload metric value unit (detail)" lines and
// collects the ones that go into the result.
type report struct {
	out      io.Writer
	workload string
	metrics  map[string]metric
}

// add reports a metric of the result.
func (r *report) add(name string, value float64, unit, detail string) {
	r.metrics[name] = metric{value, unit}
	r.line(name, value, unit, detail)
}

// line prints a value without adding it to the result.
func (r *report) line(name string, value float64, unit, detail string) {
	if detail != "" {
		detail = " (" + detail + ")"
	}
	fmt.Fprintf(r.out, "%s %s %.6g %s%s\n", r.workload, name, value, unit, detail)
}

func run(cfg config, out io.Writer) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if _, err := os.Stat(cfg.wfserve); err != nil {
		return result{}, fmt.Errorf("wfserve binary: %w", err)
	}
	if cfg.setups < 1 {
		return result{}, errors.New("setups must be at least 1")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	l, err := w.gen(rng, w.count(cfg.seconds))
	if err != nil {
		return result{}, err
	}
	r := &report{out: out, workload: w.name, metrics: make(map[string]metric)}
	fmt.Fprintf(out, "# %s seed=%d requests=%d warm-up=%d conns=%d wfserve flags=%v\n",
		w.name, cfg.seed, len(l.reqs), len(l.warm), w.conns, w.flags())
	if cfg.trace {
		return runTrace(cfg, w, l, r)
	}
	return runEndToEnd(cfg, w, l, rng, r)
}

// runEndToEnd measures the workload against a live wfserve.
func runEndToEnd(cfg config, w *workload, l load, rng *rand.Rand, r *report) (result, error) {
	c := newHTTPClient(w.conns)
	nominal := time.Duration(float64(len(l.reqs)) / w.rate * float64(time.Second))
	cutoff := 4*nominal + 10*time.Second
	res := result{Metrics: r.metrics}

	var srv *wfserve
	defer func() {
		if srv != nil {
			srv.stop() //nolint:errcheck // error path; the success path stops and checks
		}
	}()
	setups := make([]time.Duration, cfg.setups)
	for i := range setups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return result{}, err
			}
			srv = nil
			c.CloseIdleConnections()
		}
		t0 := time.Now()
		s, err := startWfserve(cfg.wfserve, w.flags())
		if err != nil {
			return result{}, err
		}
		srv = s
		if err := srv.healthy(c); err != nil {
			return result{}, err
		}
		warm := drive(c, srv.base, w.path, l.warm, nil, w.conns, cutoff)
		setups[i] = time.Since(t0)
		res.Attempted += len(l.warm)
		res.Failed += len(l.warm) - warm.sent + warm.failed
		for _, err := range warm.errs {
			fmt.Fprintf(r.out, "# warm-up failure: %v\n", err)
		}
	}
	before, err := srv.scrapeMetrics(c, opOf(w))
	if err != nil {
		return result{}, err
	}
	p := drive(c, srv.base, w.path, l.reqs, l.keep, w.conns, cutoff)
	rss, err := srv.rssPeakMiB()
	if err != nil {
		return result{}, err
	}
	after, err := srv.scrapeMetrics(c, opOf(w))
	if err != nil {
		return result{}, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return result{}, err
	}

	ok := len(p.lat)
	res.Attempted += len(l.reqs)
	res.Failed += len(l.reqs) - p.sent + p.failed
	for _, err := range p.errs {
		fmt.Fprintf(r.out, "# failure: %v\n", err)
	}
	chk := checkKept(w, l, p.bodies, func() bool { return rng.Intn(resolveEvery) == 0 })
	res.Failed += chk.failed
	for _, err := range chk.errs {
		fmt.Fprintf(r.out, "# check failure: %v\n", err)
	}
	res.Correct = res.Failed == 0
	if ok == 0 {
		return res, nil // nothing succeeded: no timing to report
	}

	counts := fmt.Sprintf("n=%d", ok)
	r.add("setup_s", median(setups).Seconds(), "s", fmt.Sprintf("median of %d starts, exec to end of warm-up", len(setups)))
	r.add("throughput_rps", float64(ok)/p.wall.Seconds(), "req/s", fmt.Sprintf("%d ok in %.3fs", ok, p.wall.Seconds()))
	r.add("latency_p50_ms", ms(quantile(p.lat, 0.5)), "ms", counts)
	r.add("rss_peak_mib", rss, "MiB", "wfserve VmHWM at the end of the measured phase")
	// The tail and, for sweeps, the time to the first front point are
	// printed but not gated: between two sets of runs of the same code
	// they moved by more than any bound could allow (README.md, "Noise").
	tail := tailQuantile(ok)
	r.line("latency_tail_ms", ms(quantile(p.lat, tail)), "ms",
		fmt.Sprintf("p%g, n=%d, %d beyond", tail*100, ok, ok-int(float64(ok)*tail+0.5)))
	if w.path == "/v1/pareto" {
		r.line("first_point_p50_ms", ms(quantile(p.first, 0.5)), "ms", counts)
	}
	r.line("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio",
		fmt.Sprintf("attempted=%d sent=%d ok=%d failed=%d checked=%d re-solved=%d",
			res.Attempted, p.sent, ok, res.Failed, chk.checked, chk.resolved))
	reportServer(r, before, after, r.line)
	return res, nil
}

// opOf is the wfserve_solve_seconds operation label of the workload.
func opOf(w *workload) string {
	if w.path == "/v1/pareto" {
		return "pareto"
	}
	return "solve"
}

// reportServer reports the server's own counters over a phase, from two
// /metrics scrapes. The cache size is only printed: neither direction of
// it is better in itself.
func reportServer(r *report, before, after scrape, emit func(string, float64, string, string)) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	emit("server.cache_hit_ratio", ratio, "ratio", fmt.Sprintf("hits=%.0f misses=%.0f", hits, misses))
	r.line("server.cache_size", after.size, "count", "")
	if n := after.solveCount - before.solveCount; n > 0 {
		emit("server.engine_us", (after.solveSum-before.solveSum)/n*1e6, "us", fmt.Sprintf("mean of %.0f", n))
	}
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median[T cmp.Ordered](xs []T) T { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile, up to p99 and in steps of
// p0.1, that leaves at least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	return min(0.99, max(0.5, math.Floor(1000*(1-10/float64(n)))/1000))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
