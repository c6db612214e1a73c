package nph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce2Partition checks all subsets.
func bruteForce2Partition(a []int) bool {
	total := intSum(a)
	if total%2 != 0 {
		return false
	}
	for mask := 0; mask < 1<<len(a); mask++ {
		s := 0
		for i := range a {
			if mask&(1<<i) != 0 {
				s += a[i]
			}
		}
		if 2*s == total {
			return true
		}
	}
	return false
}

func TestTwoPartitionKnownCases(t *testing.T) {
	cases := []struct {
		a    []int
		want bool
	}{
		{[]int{1, 1}, true},
		{[]int{1, 2, 3}, true},     // {3} vs {1,2}
		{[]int{1, 2, 4}, false},    // total 7 odd
		{[]int{2, 2, 2}, false},    // total 6, half 3 unreachable
		{[]int{1, 5, 11, 5}, true}, // {11} vs {1,5,5}
		{[]int{3, 1, 1, 2, 2, 1}, true},
		{[]int{7}, false},
	}
	for _, c := range cases {
		subset, got, err := TwoPartition(c.a)
		if err != nil {
			t.Fatalf("TwoPartition(%v): %v", c.a, err)
		}
		if got != c.want {
			t.Errorf("TwoPartition(%v) = %v, want %v", c.a, got, c.want)
		}
		if got {
			if 2*subsetSum(c.a, subset) != intSum(c.a) {
				t.Errorf("TwoPartition(%v) subset %v does not halve the sum", c.a, subset)
			}
		}
	}
}

func TestTwoPartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(10)
		a := make([]int, m)
		for i := range a {
			a[i] = 1 + rng.Intn(30)
		}
		_, got, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce2Partition(a); got != want {
			t.Fatalf("TwoPartition(%v) = %v, brute force %v", a, got, want)
		}
	}
}

func TestTwoPartitionSubsetIsValidWitness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomYes2Partition(rng, 2+2*rng.Intn(4), 20)
		subset, ok, err := TwoPartition(a)
		if err != nil || !ok {
			return false
		}
		seen := make(map[int]bool)
		for _, i := range subset {
			if i < 0 || i >= len(a) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return 2*subsetSum(a, subset) == intSum(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomNo2PartitionIsNo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a := randomNo2Partition(rng, 1+rng.Intn(8), 15)
		if _, ok, _ := TwoPartition(a); ok {
			t.Fatalf("randomNo2Partition produced a yes-instance: %v", a)
		}
	}
}

func TestTwoPartitionRejectsBadInput(t *testing.T) {
	if _, _, err := TwoPartition(nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, _, err := TwoPartition([]int{1, 0}); err == nil {
		t.Error("zero element accepted")
	}
	if _, _, err := TwoPartition([]int{-3}); err == nil {
		t.Error("negative element accepted")
	}
}

// subsetSum returns the sum of a over the given indices.
func subsetSum(a []int, subset []int) int {
	s := 0
	for _, i := range subset {
		s += a[i]
	}
	return s
}

// randomYes2Partition returns an instance of m elements (m even, >= 2) that
// is guaranteed to admit a 2-partition: elements are generated in pairs of
// equal values, so the pairing itself is a witness.
func randomYes2Partition(rng *rand.Rand, m, maxV int) []int {
	if m%2 != 0 {
		m++
	}
	a := make([]int, m)
	for i := 0; i < m; i += 2 {
		v := 1 + rng.Intn(maxV)
		a[i], a[i+1] = v, v
	}
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}

// randomNo2Partition returns an instance with an odd total sum, which can
// never be 2-partitioned.
func randomNo2Partition(rng *rand.Rand, m, maxV int) []int {
	a := make([]int, m)
	for i := range a {
		a[i] = 1 + rng.Intn(maxV)
	}
	total := 0
	for _, v := range a {
		total += v
	}
	if total%2 == 0 {
		a[0]++
	}
	return a
}
