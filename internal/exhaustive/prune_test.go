package exhaustive

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/anytime"
	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The bound-pruned searches must return byte-identical results to the
// unpruned ones: pruning stops a search once its incumbent reaches the
// anytime lower bound, which can only skip candidates that tie — and
// ties never replace an incumbent. These tests are the regression
// oracle for that argument, on randomized corpora across objectives.

// speedPools are the speed sets of the repeated-speed corpora: integer
// speeds, and fractional ones whose subset sums depend on the order of
// addition, so relabelled subsets may differ in cost by an ULP.
var speedPools = [][]float64{{1, 2, 3, 4, 5}, {0.7, 1.0 / 3, 2.9}}

// identityPlatforms returns the platforms of one identity trial: p
// processors of integer speeds 1..maxS, and p+1 processors in one to
// three speed classes from a pool, on which the pruned searches skip
// the subsets that only relabel equal-speed processors.
func identityPlatforms(rng *rand.Rand, p, maxS int) []platform.Platform {
	return []platform.Platform{
		platform.Random(rng, p, maxS),
		platform.RandomClasses(rng, p+1, 1+rng.Intn(3), speedPools[rng.Intn(len(speedPools))]),
	}
}

// forkScan and forkJoinScan run one serial scan on a fresh enumerator
// without the partial-assignment cut; lb = 0 disables the lower-bound
// cutoff too, leaving the plain scan that costs every mapping.
func forkScan(ctx context.Context, f workflow.Fork, pl platform.Platform, allowDP bool,
	accept func(mapping.Cost) bool, objective func(mapping.Cost) float64, lb float64) (ForkJoinResult, bool, error) {
	st := new(shardScan).init(newFJEnum(joinless(f), false, pl, allowDP, buildMaskInfo(pl)))
	st.accept, st.objective, st.lb, st.cut = accept, objective, lb, nil
	return st.scan(ctx, incumbent.Prefix{}, nil, 0)
}

func forkJoinScan(ctx context.Context, fj workflow.ForkJoin, pl platform.Platform, allowDP bool,
	accept func(mapping.Cost) bool, objective func(mapping.Cost) float64, lb float64) (ForkJoinResult, bool, error) {
	st := new(shardScan).init(newFJEnum(fj, true, pl, allowDP, buildMaskInfo(pl)))
	st.accept, st.objective, st.lb, st.cut = accept, objective, lb, nil
	return st.scan(ctx, incumbent.Prefix{}, nil, 0)
}

// countedScan runs the serial scan a prepared solver runs for an
// unbounded objective — with its anytime lower bound — with or without
// the cut, and counts the complete mappings it costs.
func countedScan(e *fjEnum, allowDP, minimizePeriod, cut bool) (ForkJoinResult, bool, int, error) {
	st := new(shardScan).init(e)
	st.accept, st.objective = acceptAll, latency
	if minimizePeriod {
		st.objective = period
	}
	st.lb = anytime.ForkJoinLB(e.fj, e.pl, anytime.Spec{MinimizePeriod: minimizePeriod, AllowDP: allowDP})
	if !cut {
		st.cut = nil
	}
	costed := 0
	install := st.visit
	st.visit = func(m mapping.ForkJoinMapping, c mapping.Cost) bool {
		costed++
		return install(m, c)
	}
	res, ok, err := st.scan(context.Background(), incumbent.Prefix{}, nil, 0)
	return res, ok, costed, err
}

// checkCutSavings compares cut and uncut scans of one instance set, one
// objective per instance (period on even indices, latency on odd ones,
// as the kernel benchmarks do): results must be identical, the cut must
// cost at least ten times fewer mappings over the set, and the cut scans
// may visit at most maxNodes scan nodes in all — the ceiling that pins
// the look-ahead bound. The counts are deterministic, unlike the
// benchmarks' timings.
func checkCutSavings(t *testing.T, kind string, enums []*fjEnum, maxNodes int) {
	t.Helper()
	var cutCosted, fullCosted, nodes int
	for k, e := range enums {
		before := e.nodes
		res, ok, n, err := countedScan(e, true, k%2 == 0, true)
		nodes += e.nodes - before
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantOK, wantN, err := countedScan(e.fresh(), true, k%2 == 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s instance %d: cut scan (%v, %v) != full scan (%v, %v)", kind, k, res, ok, wantRes, wantOK)
		}
		cutCosted += n
		fullCosted += wantN
	}
	t.Logf("%s: %d mappings costed with the cut, %d without; %d scan nodes", kind, cutCosted, fullCosted, nodes)
	if 10*cutCosted > fullCosted {
		t.Errorf("%s: the cut costs %d mappings against %d without it, want at least 10x fewer", kind, cutCosted, fullCosted)
	}
	if nodes > maxNodes {
		t.Errorf("%s: the cut scans visit %d scan nodes, want at most %d", kind, nodes, maxNodes)
	}
}

// TestForkCutCostsFewerMappings runs BenchmarkKernelFork's instance set
// (internal/incumbent/kernels_bench_test.go: seed 2, a root and 5 leaves
// of weight 1..10 on 4 processors of speed 1..5, data-parallelism on).
// Without the look-ahead bound the cut scans visit 105,424 nodes.
func TestForkCutCostsFewerMappings(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var enums []*fjEnum
	for i := 0; i < 8; i++ {
		f := workflow.RandomFork(r, 5, 10)
		pl := platform.Random(r, 4, 5)
		enums = append(enums, newFJEnum(joinless(f), false, pl, true, buildMaskInfo(pl)))
	}
	checkCutSavings(t, "fork", enums, 26000)
}

// TestForkJoinCutCostsFewerMappings runs BenchmarkKernelForkJoin's
// instance set (seed 3, root, join and 4 leaves on 4 processors).
// Without the look-ahead bound the cut scans visit 170,607 nodes.
func TestForkJoinCutCostsFewerMappings(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var enums []*fjEnum
	for i := 0; i < 8; i++ {
		fj := workflow.RandomForkJoin(r, 4, 10)
		pl := platform.Random(r, 4, 5)
		enums = append(enums, newFJEnum(fj, true, pl, true, buildMaskInfo(pl)))
	}
	checkCutSavings(t, "fork-join", enums, 56000)
}

func TestPipelinePruningIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		p := workflow.RandomPipeline(rng, 1+rng.Intn(5), 9)
		dp := trial%2 == 0
		for _, pl := range identityPlatforms(rng, 1+rng.Intn(4), 4) {
			for name, cfg := range map[string]struct {
				periodCap      float64
				minimizePeriod bool
			}{
				"period":               {numeric.Inf, true},
				"latency":              {numeric.Inf, false},
				"latency-under-period": {float64(1+rng.Intn(6)) / 2, false},
			} {
				pruned := newPipeSolver(context.Background(), p, pl, dp, cfg.periodCap, cfg.minimizePeriod)
				res, ok, err := pruned.result()
				if err != nil {
					t.Fatal(err)
				}
				plain := newPipeSolver(context.Background(), p, pl, dp, cfg.periodCap, cfg.minimizePeriod)
				plain.prune = false
				wantRes, wantOK, err := plain.result()
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("trial %d %s: pruned (%v, %v) != unpruned (%v, %v) for %v on %v dp=%v",
						trial, name, res, ok, wantRes, wantOK, p, pl, dp)
				}
			}
		}
	}
}

func TestForkPruningIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
		dp := trial%2 == 0
		bound := float64(1+rng.Intn(8)) / 2
		for _, pl := range identityPlatforms(rng, 1+rng.Intn(3), 4) {

			type scan struct {
				pruned func() (ForkJoinResult, bool, error)
				plain  func() (ForkJoinResult, bool, error)
			}
			scans := map[string]scan{
				"period": {
					func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).Period(ctx) },
					func() (ForkJoinResult, bool, error) { return forkScan(ctx, f, pl, dp, acceptAll, period, 0) },
				},
				"latency": {
					func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).Latency(ctx) },
					func() (ForkJoinResult, bool, error) { return forkScan(ctx, f, pl, dp, acceptAll, latency, 0) },
				},
				"latency-under-period": {
					func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).LatencyUnderPeriod(ctx, bound) },
					func() (ForkJoinResult, bool, error) {
						return forkScan(ctx, f, pl, dp,
							func(c mapping.Cost) bool { return numeric.LessEq(c.Period, bound) }, latency, 0)
					},
				},
				"period-under-latency": {
					func() (ForkJoinResult, bool, error) { return NewForkPrepared(f, pl, dp).PeriodUnderLatency(ctx, bound) },
					func() (ForkJoinResult, bool, error) {
						return forkScan(ctx, f, pl, dp,
							func(c mapping.Cost) bool { return numeric.LessEq(c.Latency, bound) }, period, 0)
					},
				},
			}
			for name, s := range scans {
				res, ok, err := s.pruned()
				if err != nil {
					t.Fatal(err)
				}
				wantRes, wantOK, err := s.plain()
				if err != nil {
					t.Fatal(err)
				}
				if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("trial %d %s: pruned (%v, %v) != unpruned (%v, %v) for %v on %v dp=%v",
						trial, name, res, ok, wantRes, wantOK, f, pl, dp)
				}
			}
		}
	}
}

func TestForkJoinPruningIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		fj := workflow.RandomForkJoin(rng, 1+rng.Intn(2), 9)
		dp := trial%2 == 0
		for _, pl := range identityPlatforms(rng, 1+rng.Intn(3), 4) {
			res, ok, err := NewForkJoinPrepared(fj, pl, dp).Period(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantOK, err := forkJoinScan(ctx, fj, pl, dp, acceptAll, period, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("trial %d period: pruned != unpruned for %v on %v dp=%v", trial, fj, pl, dp)
			}

			res, ok, err = NewForkJoinPrepared(fj, pl, dp).Latency(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantOK, err = forkJoinScan(ctx, fj, pl, dp, acceptAll, latency, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("trial %d latency: pruned != unpruned for %v on %v dp=%v", trial, fj, pl, dp)
			}
		}
	}
}

// TestPruningFiresOnTightInstances exercises the early-stop path itself:
// on a homogeneous platform the replicate-all mapping reaches the
// sum-of-work period bound, so the pruned scans must terminate (fast)
// with the same optimum the bound certifies.
func TestPruningFiresOnTightInstances(t *testing.T) {
	f := workflow.HomogeneousFork(2, 4, 3)
	pl := platform.Homogeneous(4, 2)
	res, ok, err := NewForkPrepared(f, pl, false).Period(context.Background())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	want := f.TotalWork() / pl.TotalSpeed()
	if !numeric.Eq(res.Cost.Period, want) {
		t.Fatalf("period %g, want the sum-of-work bound %g", res.Cost.Period, want)
	}
}
