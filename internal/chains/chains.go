// Package chains implements the chains-to-chains partitioning problem that
// Benoit & Robert (RR-6308, Section 1) identify as the communication-free
// core of pipeline period minimization without replication: partition an
// array a_1..a_n into at most p consecutive intervals minimizing the
// largest interval sum.
//
// It solves the problem exactly by Bokhari-style dynamic programming
// (O(n²·p)), following Bokhari (1988) and Hansen & Lih (1992).
//
// The package doubles as a baseline in the benchmark harness: on a
// homogeneous platform, mapping each interval to one processor without
// replication yields exactly the chains-to-chains optimum, which Theorem 1
// then beats by replicating.
package chains

import (
	"errors"
	"fmt"

	"repliflow/internal/numeric"
)

// Partition is a division of the array into consecutive intervals: Bounds
// holds the exclusive end index of each interval, so interval k covers
// [Bounds[k-1], Bounds[k]) with an implicit leading 0.
type Partition struct {
	Bounds []int
}

// Intervals returns the number of intervals.
func (p Partition) Intervals() int { return len(p.Bounds) }

// Validate checks the partition covers exactly [0, n) in order with
// non-empty intervals.
func (p Partition) Validate(n int) error {
	if len(p.Bounds) == 0 {
		return errors.New("chains: empty partition")
	}
	prev := 0
	for i, end := range p.Bounds {
		if end <= prev {
			return fmt.Errorf("chains: interval %d is empty or out of order (prev=%d end=%d)", i, prev, end)
		}
		prev = end
	}
	if prev != n {
		return fmt.Errorf("chains: partition covers [0,%d), want [0,%d)", prev, n)
	}
	return nil
}

func validateInput(a []float64, p int) error {
	if len(a) == 0 {
		return errors.New("chains: empty array")
	}
	if p <= 0 {
		return fmt.Errorf("chains: non-positive interval count %d", p)
	}
	for i, v := range a {
		if v < 0 {
			return fmt.Errorf("chains: negative element a[%d]=%v", i, v)
		}
	}
	return nil
}

// DP solves chains-to-chains exactly by dynamic programming: the minimum
// bottleneck of a partition of a into at most p intervals, with an optimal
// partition. Complexity O(n²·p).
func DP(a []float64, p int) (Partition, float64, error) {
	if err := validateInput(a, p); err != nil {
		return Partition{}, 0, err
	}
	n := len(a)
	if p > n {
		p = n
	}
	prefix := make([]float64, n+1)
	for i, v := range a {
		prefix[i+1] = prefix[i] + v
	}
	// best[k][j]: minimum bottleneck partitioning a[0:j] into at most k
	// intervals.
	best := make([][]float64, p+1)
	cut := make([][]int, p+1)
	for k := range best {
		best[k] = make([]float64, n+1)
		cut[k] = make([]int, n+1)
		for j := range best[k] {
			best[k][j] = numeric.Inf
		}
	}
	best[0][0] = 0
	for k := 1; k <= p; k++ {
		best[k][0] = 0
		for j := 1; j <= n; j++ {
			for i := k - 1; i < j; i++ {
				if best[k-1][i] > best[k][j] {
					continue
				}
				v := prefix[j] - prefix[i]
				if best[k-1][i] > v {
					v = best[k-1][i]
				}
				if numeric.Less(v, best[k][j]) {
					best[k][j] = v
					cut[k][j] = i
				}
			}
		}
	}
	// Find the best k (more intervals never hurt, but reconstruct from the
	// actual argmin for a tight partition).
	bestK := p
	for k := 1; k <= p; k++ {
		if numeric.Less(best[k][n], best[bestK][n]) {
			bestK = k
		}
	}
	var bounds []int
	j := n
	for k := bestK; k > 0 && j > 0; k-- {
		bounds = append([]int{j}, bounds...)
		j = cut[k][j]
	}
	part := Partition{Bounds: bounds}
	if err := part.Validate(n); err != nil {
		panic("chains: DP produced invalid partition: " + err.Error())
	}
	return part, best[bestK][n], nil
}
