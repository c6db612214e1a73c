package chains

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repliflow/internal/numeric"
)

// bruteForce finds the optimal bottleneck by enumerating all partitions.
func bruteForce(a []float64, p int) float64 {
	n := len(a)
	best := numeric.Inf
	var rec func(start, left int, worst float64)
	rec = func(start, left int, worst float64) {
		if start == n {
			if worst < best {
				best = worst
			}
			return
		}
		if left == 0 {
			return
		}
		var sum float64
		for end := start + 1; end <= n; end++ {
			sum += a[end-1]
			w := worst
			if sum > w {
				w = sum
			}
			rec(end, left-1, w)
		}
	}
	rec(0, p, 0)
	return best
}

func TestDPKnownCases(t *testing.T) {
	cases := []struct {
		a    []float64
		p    int
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 2, 6},  // {1,2,3} {4} -> 6
		{[]float64{1, 2, 3, 4}, 4, 4},  // singletons
		{[]float64{1, 2, 3, 4}, 1, 10}, // whole array
		{[]float64{5, 1, 1, 1, 5}, 3, 5},
		{[]float64{14, 4, 2, 4}, 3, 14}, // the Section 2 example without replication
		{[]float64{7}, 3, 7},
	}
	for _, c := range cases {
		part, got, err := DP(c.a, c.p)
		if err != nil {
			t.Fatalf("DP(%v,%d): %v", c.a, c.p, err)
		}
		if !numeric.Eq(got, c.want) {
			t.Errorf("DP(%v,%d) = %v, want %v", c.a, c.p, got, c.want)
		}
		if err := part.Validate(len(c.a)); err != nil {
			t.Errorf("DP(%v,%d) invalid partition: %v", c.a, c.p, err)
		}
		if !numeric.Eq(part.bottleneck(c.a), got) {
			t.Errorf("reported %v but partition bottleneck is %v", got, part.bottleneck(c.a))
		}
	}
}

// nicol is Nicol's method on top of probe: the least interval sum the
// greedy probe accepts, by binary search over the sorted candidates.
func nicol(a []float64, p int) float64 {
	var cands []float64
	for i := range a {
		var sum float64
		for j := i; j < len(a); j++ {
			sum += a[j]
			cands = append(cands, sum)
		}
	}
	cands = numeric.DedupSorted(cands)
	k := sort.Search(len(cands), func(k int) bool {
		_, ok := probe(a, p, cands[k])
		return ok
	})
	return cands[k]
}

func TestNicolEqualsDPEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(5)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(1 + rng.Intn(20))
		}
		_, dpVal, err := DP(a, p)
		if err != nil {
			t.Fatal(err)
		}
		bf := bruteForce(a, p)
		if !numeric.Eq(dpVal, bf) {
			t.Fatalf("DP(%v,%d) = %v, brute force %v", a, p, dpVal, bf)
		}
		if nicolVal := nicol(a, p); !numeric.Eq(nicolVal, bf) {
			t.Fatalf("Nicol(%v,%d) = %v, brute force %v", a, p, nicolVal, bf)
		}
	}
}

func TestProbe(t *testing.T) {
	a := []float64{3, 1, 4, 1, 5}
	if _, ok := probe(a, 2, 6); ok {
		t.Error("probe accepted bound 6 with 2 intervals") // best is 8: {3,1,4}{1,5} -> 8... bound 6 needs 3
	}
	part, ok := probe(a, 3, 6)
	if !ok {
		t.Fatal("probe rejected feasible bound")
	}
	if err := part.Validate(len(a)); err != nil {
		t.Fatal(err)
	}
	if part.bottleneck(a) > 6 {
		t.Errorf("bottleneck %v exceeds bound", part.bottleneck(a))
	}
	// A single element larger than the bound is infeasible at any p.
	if _, ok := probe(a, 5, 4.9); ok {
		t.Error("probe accepted bound below max element")
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, _, err := DP(nil, 2); err == nil {
		t.Error("empty array accepted")
	}
	if _, _, err := DP([]float64{1}, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, _, err := DP([]float64{-1}, 1); err == nil {
		t.Error("negative element accepted")
	}
}

func TestPartitionValidate(t *testing.T) {
	if err := (Partition{Bounds: []int{2, 4}}).Validate(4); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := (Partition{}).Validate(4); err == nil {
		t.Error("empty partition accepted")
	}
	if err := (Partition{Bounds: []int{2, 2, 4}}).Validate(4); err == nil {
		t.Error("empty interval accepted")
	}
	if err := (Partition{Bounds: []int{2}}).Validate(4); err == nil {
		t.Error("short partition accepted")
	}
}

func TestMorePiecesNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(1 + rng.Intn(9))
		}
		prev := numeric.Inf
		for p := 1; p <= n+1; p++ {
			_, v, err := DP(a, p)
			if err != nil || numeric.Greater(v, prev) {
				return false
			}
			prev = v
		}
		// With p >= n the bottleneck is the max element.
		return numeric.Eq(prev, numeric.MaxFloat(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// probe reports whether a can be partitioned into at most p consecutive
// intervals each of sum at most bound, and returns the greedy partition
// when it can. This is Nicol's probe: greedily extend each interval as far
// as the bound allows.
func probe(a []float64, p int, bound float64) (Partition, bool) {
	n := len(a)
	var bounds []int
	i := 0
	for k := 0; k < p && i < n; k++ {
		var sum float64
		j := i
		for j < n && numeric.LessEq(sum+a[j], bound) {
			sum += a[j]
			j++
		}
		if j == i {
			return Partition{}, false // a single element exceeds the bound
		}
		bounds = append(bounds, j)
		i = j
	}
	if i < n {
		return Partition{}, false
	}
	return Partition{Bounds: bounds}, true
}

// bottleneck returns the largest interval sum of the partition over a.
func (p Partition) bottleneck(a []float64) float64 {
	var worst float64
	start := 0
	for _, end := range p.Bounds {
		var sum float64
		for i := start; i < end; i++ {
			sum += a[i]
		}
		if sum > worst {
			worst = sum
		}
		start = end
	}
	return worst
}
