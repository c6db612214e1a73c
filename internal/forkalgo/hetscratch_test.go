package forkalgo

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// sameBits reports whether two float lists are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The Theorem 14 candidate lists built over the distinct speeds are
// bit-identical to the lists built over every processor's speed: an equal
// speed only adds exact duplicates, which the dedup drops.
func TestTheorem14CandidatesOverDistinctSpeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pool := []float64{1, 2, 3, 5, 0.5, 1.5, 2.5, 0.1}
	for trial := 0; trial < 200; trial++ {
		pl := platform.RandomClasses(rng, 1+rng.Intn(8), 1+rng.Intn(3), pool)
		leaves := make([]float64, rng.Intn(7))
		w := float64(1+rng.Intn(9)) / float64(1+rng.Intn(3))
		for i := range leaves {
			leaves[i] = w
		}
		hasJoin := rng.Intn(2) == 0
		join := 0.0
		if hasJoin {
			join = float64(1+rng.Intn(9)) / 2
		}
		in := newInstance(workflow.ForkJoin{Root: float64(1+rng.Intn(9)) / 3, Weights: leaves, Join: join}, hasJoin, pl, false)
		distinct, p := pl.DistinctSpeeds(), pl.Processors()
		if got, want := periodCandidates(in, distinct, p), periodCandidates(in, pl.Speeds, p); !sameBits(got, want) {
			t.Fatalf("trial %d: period candidates over %v differ from those over %v", trial, distinct, pl.Speeds)
		}
		if got, want := latencyCandidates(in, distinct), latencyCandidates(in, pl.Speeds); !sameBits(got, want) {
			t.Fatalf("trial %d: latency candidates over %v differ from those over %v", trial, distinct, pl.Speeds)
		}
	}
}

// A Theorem 14 solve allocates its scratch once, so its allocations do not
// grow with the number of (q, q0, jq) configurations it tries: on 8
// processors a probe tries 8x the configurations it tries on 4, and the
// solve allocates only the larger mappings of its accepted probes on top
// (5 and 67 more objects at this writing). One allocation per
// configuration would add thousands.
func TestTheorem14AllocsDoNotGrowWithConfigurations(t *testing.T) {
	fj := workflow.HomogeneousForkJoin(4, 6, 8, 7)
	small, large := platform.New(3, 1, 4, 2), platform.New(3, 1, 4, 2, 5, 2, 3, 1)
	for _, obj := range []struct {
		name           string
		minimizePeriod bool
	}{{"min-period", true}, {"min-latency", false}} {
		allocs := func(pl platform.Platform) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, _, err := Theorem14(fj, true, pl, obj.minimizePeriod, numeric.Inf); err != nil {
					t.Fatal(err)
				}
			})
		}
		s, l := allocs(small), allocs(large)
		if l > s+100 {
			t.Errorf("%s: the 8-processor solve allocates %v objects, the 4-processor one %v: more than 100 apart", obj.name, l, s)
		}
	}
}

// Theorem 14 solves from several goroutines on one shared instance and
// platform answer exactly as serial solves do: the scratch belongs to one
// solve, never to the package.
func TestTheorem14ConcurrentSolvesMatchSerial(t *testing.T) {
	f := workflow.HomogeneousFork(4, 8, 7)
	fj := workflow.HomogeneousForkJoin(4, 6, 8, 7)
	pl := platform.New(3, 1, 4, 2, 5, 2, 3, 1)
	solve := func() []any {
		var out []any
		for _, s := range []struct {
			g                    workflow.ForkJoin
			join, minimizePeriod bool
		}{{joinless(f), false, true}, {joinless(f), false, false}, {fj, true, true}, {fj, true, false}} {
			res, _, err := Theorem14(s.g, s.join, pl, s.minimizePeriod, numeric.Inf)
			if err != nil {
				return []any{err}
			}
			out = append(out, res)
		}
		return out
	}
	want := solve()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := solve(); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent answers %v, serial %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
