package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/fullmodel"
	"repliflow/internal/instance"
	"repliflow/internal/platform"
	"repliflow/internal/server"
	"repliflow/internal/workflow"
)

// request is one pre-generated HTTP request of a workload.
type request struct {
	kind string       // wire kind name of the instance
	pr   core.Problem // the instance, for the output checks and the traced run
	body []byte       // JSON request body
}

// load is the generated input of one run: the warm-up requests, the
// measured sequence, and which measured responses keep their full body
// for the output checks.
type load struct {
	warm []*request
	reqs []*request
	keep []bool
}

// workload is one traffic mix. Every workload is a closed loop with a
// fixed request count, so two commits solve exactly the same inputs and
// the server's cache contents (and so its memory) do not grow with speed.
type workload struct {
	name  string
	path  string // /v1/solve or /v1/pareto
	conns int
	// cacheEntries, when non-zero, is passed to wfserve as
	// -max-cache-entries; otherwise wfserve runs with default flags.
	cacheEntries int
	// rate is the nominal request (or sweep) rate of the seed commit on
	// the reference machine (see README.md): --seconds × rate fixes the
	// request count, so a run measures about --seconds there.
	rate float64
	// traceN caps the measured requests the traced run replays.
	traceN int
	gen    func(rng *rand.Rand, count int) (load, error)
}

var workloads = []*workload{
	{
		name:   "solve-hot",
		path:   "/v1/solve",
		conns:  2,
		rate:   17000,
		traceN: 2000,
		gen:    genHot,
	},
	{
		name:         "solve-churn",
		path:         "/v1/solve",
		conns:        2,
		cacheEntries: 8192,
		rate:         2400,
		traceN:       2000,
		gen:          genChurn,
	},
	{
		name:   "solve-nphard",
		path:   "/v1/solve",
		conns:  2,
		rate:   1250,
		traceN: 2000,
		gen:    genNPHard,
	},
	{
		name:   "pareto-sweep",
		path:   "/v1/pareto",
		conns:  1,
		rate:   27,
		traceN: 50,
		gen:    genPareto,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// defaultCacheEntries is wfserve's engine cache bound without the flag.
const defaultCacheEntries = 65536

// flags are the wfserve flags of the workload.
func (w *workload) flags() []string {
	if w.cacheEntries == 0 {
		return nil
	}
	return []string{"-max-cache-entries", strconv.Itoa(w.cacheEntries)}
}

// newEngine returns an engine configured as wfserve configures its own for
// the workload, with one worker per client core.
func (w *workload) newEngine() *engine.Engine {
	eng := engine.New(0)
	eng.SetCacheLimit(cmp.Or(w.cacheEntries, defaultCacheEntries))
	return eng
}

// count is the fixed measured request count of a run of the given length.
func (w *workload) count(seconds float64) int {
	return max(1, int(math.Round(seconds*w.rate)))
}

// spec draws instances of one configuration: a graph kind on a platform
// shape whose Table 1 cell is polynomial or NP-hard as poly says. Every
// drawn instance is solved exactly under the default limits.
type spec struct {
	kind string
	poly bool
	make func(rng *rand.Rand) core.Problem
}

// The instance configurations. Weights are integers in [1,10], speeds,
// data sizes and bandwidths integers in [1,5], as wfgen draws them.
var (
	hotSpecs = []spec{
		{"pipeline", true, func(r *rand.Rand) core.Problem { return pipe(r, between(r, 6, 8), between(r, 4, 6), true, false, true) }},
		{"pipeline", true, func(r *rand.Rand) core.Problem {
			return pipe(r, between(r, 6, 8), between(r, 4, 6), false, true, false)
		}},
		{"fork", true, func(r *rand.Rand) core.Problem {
			return fork(r, between(r, 5, 8), between(r, 4, 6), true, false, r.Intn(2) == 0, core.MinPeriod)
		}},
		{"fork-join", true, func(r *rand.Rand) core.Problem {
			return forkJoin(r, between(r, 4, 6), between(r, 4, 6), false, true, false)
		}},
		{"comm-pipeline", true, func(r *rand.Rand) core.Problem { return commPipe(r, between(r, 5, 7), between(r, 4, 5), true) }},
		{"fork", true, func(r *rand.Rand) core.Problem {
			return fork(r, between(r, 5, 8), between(r, 4, 6), true, true, false, core.MinLatency)
		}},
		{"pipeline", false, func(r *rand.Rand) core.Problem { return pipe(r, 5, 4, false, false, true) }},
		{"fork", false, func(r *rand.Rand) core.Problem { return fork(r, 4, 3, false, false, true, objective(r)) }},
		{"fork-join", false, func(r *rand.Rand) core.Problem { return forkJoin(r, 3, 3, false, false, true) }},
		{"sp", false, func(r *rand.Rand) core.Problem { return sp(r, 5, 4) }},
		{"comm-pipeline", false, func(r *rand.Rand) core.Problem { return commPipe(r, 5, 4, false) }},
		{"comm-fork", false, func(r *rand.Rand) core.Problem { return commFork(r, 4, 3) }},
	}
	churnSpecs = []spec{
		{"pipeline", true, func(r *rand.Rand) core.Problem {
			return pipe(r, between(r, 8, 12), between(r, 6, 8), true, false, true)
		}},
		{"pipeline", true, func(r *rand.Rand) core.Problem {
			return pipe(r, between(r, 8, 12), between(r, 6, 8), false, true, false)
		}},
		{"fork", true, func(r *rand.Rand) core.Problem {
			obj := objective(r)
			// Latency on a fork with unequal leaves is NP-hard even on a
			// homogeneous platform (Theorem 12).
			return fork(r, between(r, 6, 10), between(r, 6, 8), true, obj == core.MinLatency, r.Intn(2) == 0, obj)
		}},
		{"fork-join", true, func(r *rand.Rand) core.Problem {
			return forkJoin(r, between(r, 6, 10), between(r, 6, 8), false, true, false)
		}},
	}
	npHardSpecs = []spec{
		{"pipeline", false, func(r *rand.Rand) core.Problem {
			return pipe(r, between(r, 8, 10), between(r, 6, 7), false, false, true)
		}},
		{"fork", false, func(r *rand.Rand) core.Problem { return fork(r, 5, 4, false, false, true, objective(r)) }},
		{"fork-join", false, func(r *rand.Rand) core.Problem { return forkJoin(r, 4, 4, false, false, true) }},
		{"sp", false, func(r *rand.Rand) core.Problem { return sp(r, 6, 5) }},
		{"comm-pipeline", false, func(r *rand.Rand) core.Problem { return commPipe(r, 6, 5, false) }},
	}
)

// hotPool is the number of distinct solve-hot instances.
const hotPool = 64

// warmDistinct is the warm-up request count of solve-churn and
// solve-nphard, warmSweeps that of pareto-sweep.
const (
	warmDistinct = 200
	warmSweeps   = 5
)

// keepEvery is the sampling rate of full response bodies kept for the
// output checks on the cache-bound workloads.
const keepEvery = 64

func genHot(rng *rand.Rand, count int) (load, error) {
	var d drawer
	pool := make([]*request, hotPool)
	for i := range pool {
		req, err := d.draw(rng, hotSpecs[i%len(hotSpecs)])
		if err != nil {
			return load{}, err
		}
		pool[i] = req
	}
	l := load{warm: pool, reqs: make([]*request, count), keep: make([]bool, count)}
	for i := range l.reqs {
		l.reqs[i] = pool[rng.Intn(len(pool))]
		l.keep[i] = rng.Intn(keepEvery) == 0
	}
	return l, nil
}

func genChurn(rng *rand.Rand, count int) (load, error) {
	l, err := distinct(rng, churnSpecs, warmDistinct, count)
	for i := range l.keep {
		l.keep[i] = rng.Intn(keepEvery) == 0
	}
	return l, err
}

func genNPHard(rng *rand.Rand, count int) (load, error) {
	return keepAll(distinct(rng, npHardSpecs, warmDistinct, count))
}

func genPareto(rng *rand.Rand, count int) (load, error) {
	return keepAll(distinct(rng, npHardSpecs, warmSweeps, count))
}

// keepAll keeps every measured response for the output checks.
func keepAll(l load, err error) (load, error) {
	for i := range l.keep {
		l.keep[i] = true
	}
	return l, err
}

// distinct draws warm+count pairwise distinct instances, cycling through
// the specs so the kind mix is the same for every seed.
func distinct(rng *rand.Rand, specs []spec, warm, count int) (load, error) {
	var d drawer
	all := make([]*request, warm+count)
	for i := range all {
		req, err := d.draw(rng, specs[i%len(specs)])
		if err != nil {
			return load{}, err
		}
		all[i] = req
	}
	return load{warm: all[:warm], reqs: all[warm:], keep: make([]bool, count)}, nil
}

// drawer draws instances that are pairwise distinct by engine fingerprint.
type drawer struct {
	seen map[string]bool
}

// draw returns a fresh instance of the spec. Random draws can land on a
// different cell than intended (all speeds equal, all weights equal) or
// repeat an earlier instance; those are drawn again.
func (d *drawer) draw(rng *rand.Rand, s spec) (*request, error) {
	if d.seen == nil {
		d.seen = make(map[string]bool)
	}
	for try := 0; try < 1000; try++ {
		pr := s.make(rng)
		if err := pr.Validate(); err != nil {
			return nil, fmt.Errorf("generating %s instance: %w", s.kind, err)
		}
		if core.ClassifyCell(core.CellKeyOf(pr)).Complexity.Polynomial() != s.poly ||
			!core.ExactlySolvable(pr, core.Options{}) {
			continue
		}
		fp := engine.Fingerprint(pr, core.Options{})
		if d.seen[fp] {
			continue
		}
		d.seen[fp] = true
		body, err := json.Marshal(server.SolveRequest{Instance: instance.FromProblem(pr)})
		if err != nil {
			return nil, fmt.Errorf("encoding %s instance: %w", s.kind, err)
		}
		return &request{kind: s.kind, pr: pr, body: body}, nil
	}
	return nil, fmt.Errorf("no distinct %s instance (poly=%v) after 1000 draws", s.kind, s.poly)
}

func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

func objective(rng *rand.Rand) core.Objective {
	if rng.Intn(2) == 0 {
		return core.MinPeriod
	}
	return core.MinLatency
}

const (
	maxW = 10 // largest stage weight
	maxS = 5  // largest speed, data size and bandwidth
)

func speeds(rng *rand.Rand, p int, hom bool) platform.Platform {
	if hom {
		return platform.Homogeneous(p, float64(1+rng.Intn(maxS)))
	}
	return platform.Random(rng, p, maxS)
}

func weights(rng *rand.Rand, n int, hom bool) []float64 {
	ws := make([]float64, n)
	w := float64(1 + rng.Intn(maxW))
	for i := range ws {
		if !hom {
			w = float64(1 + rng.Intn(maxW))
		}
		ws[i] = w
	}
	return ws
}

func pipe(rng *rand.Rand, n, p int, homPlat, homGraph, dp bool) core.Problem {
	g := workflow.NewPipeline(weights(rng, n, homGraph)...)
	return core.Problem{Pipeline: &g, Platform: speeds(rng, p, homPlat), AllowDataParallel: dp, Objective: objective(rng)}
}

func fork(rng *rand.Rand, n, p int, homPlat, homGraph, dp bool, obj core.Objective) core.Problem {
	g := workflow.NewFork(float64(1+rng.Intn(maxW)), weights(rng, n, homGraph)...)
	return core.Problem{Fork: &g, Platform: speeds(rng, p, homPlat), AllowDataParallel: dp, Objective: obj}
}

func forkJoin(rng *rand.Rand, n, p int, homPlat, homGraph, dp bool) core.Problem {
	g := workflow.NewForkJoin(float64(1+rng.Intn(maxW)), float64(1+rng.Intn(maxW)), weights(rng, n, homGraph)...)
	return core.Problem{ForkJoin: &g, Platform: speeds(rng, p, homPlat), AllowDataParallel: dp, Objective: objective(rng)}
}

func sp(rng *rand.Rand, n, p int) core.Problem {
	g := workflow.RandomSP(rng, n, maxW, 4, 3)
	return core.Problem{SP: &g, Platform: speeds(rng, p, false), Objective: objective(rng)}
}

func data(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + rng.Intn(maxS))
	}
	return d
}

// bandwidth is a uniform interconnect when hom, per-link tables otherwise.
func bandwidth(rng *rand.Rand, p int, hom bool) *fullmodel.Bandwidth {
	if hom {
		return &fullmodel.Bandwidth{Uniform: float64(1 + rng.Intn(maxS))}
	}
	bw := &fullmodel.Bandwidth{Links: make([][]float64, p), In: data(rng, p), Out: data(rng, p)}
	for u := range bw.Links {
		bw.Links[u] = data(rng, p)
		bw.Links[u][u] = 0
	}
	return bw
}

func commPipe(rng *rand.Rand, n, p int, hom bool) core.Problem {
	g := fullmodel.NewPipeline(weights(rng, n, false), data(rng, n+1))
	return core.Problem{CommPipeline: &g, Platform: speeds(rng, p, hom), Bandwidth: bandwidth(rng, p, hom), Objective: objective(rng)}
}

func commFork(rng *rand.Rand, n, p int) core.Problem {
	g := fullmodel.Fork{
		Root: float64(1 + rng.Intn(maxW)), In: float64(1 + rng.Intn(maxS)), Out0: float64(1 + rng.Intn(maxS)),
		Weights: weights(rng, n, false), Outs: data(rng, n),
	}
	return core.Problem{CommFork: &g, Platform: speeds(rng, p, false), Bandwidth: bandwidth(rng, p, false), Objective: objective(rng)}
}
