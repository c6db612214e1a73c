// Package nph provides the NP-hardness machinery of Benoit & Robert
// (RR-6308): exact solvers for the source problems 2-PARTITION and
// NUMERICAL 3-DIMENSIONAL MATCHING (N3DM), and executable versions of the
// paper's polynomial reductions (Theorems 5, 9, 12, 13 and 15). The
// reductions let the test-suite check, instance by instance, that the
// transformed mapping question has a solution exactly when the source
// instance does — the "if and only if" at the heart of each proof.
package nph

import (
	"errors"
	"fmt"
)

// TwoPartition decides whether the positive integers a can be split into
// two halves of equal sum, returning one such subset (as indices) when they
// can. It runs the classic pseudo-polynomial subset-sum dynamic program,
// exact for the instance sizes used here.
func TwoPartition(a []int) ([]int, bool, error) {
	if len(a) == 0 {
		return nil, false, errors.New("nph: empty 2-PARTITION instance")
	}
	total := 0
	for i, v := range a {
		if v <= 0 {
			return nil, false, fmt.Errorf("nph: non-positive element a[%d]=%d", i, v)
		}
		total += v
	}
	if total%2 != 0 {
		return nil, false, nil
	}
	half := total / 2
	// reach[s] = index of the last element used to first reach sum s, or -1.
	const unreached = -2
	reach := make([]int, half+1)
	for s := range reach {
		reach[s] = unreached
	}
	reach[0] = -1
	for i, v := range a {
		for s := half; s >= v; s-- {
			if reach[s] == unreached && reach[s-v] != unreached && reach[s-v] != i {
				reach[s] = i
			}
		}
	}
	if reach[half] == unreached {
		return nil, false, nil
	}
	// Reconstruct: walk back through the first-reacher indices. Because the
	// inner loop runs descending and skips the current element, reach[s-v]
	// was set by an earlier element, so the walk terminates.
	var subset []int
	s := half
	for s > 0 {
		i := reach[s]
		subset = append(subset, i)
		s -= a[i]
	}
	// Reverse for ascending order.
	for l, r := 0, len(subset)-1; l < r; l, r = l+1, r-1 {
		subset[l], subset[r] = subset[r], subset[l]
	}
	return subset, true, nil
}
