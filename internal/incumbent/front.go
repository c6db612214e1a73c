package incumbent

import (
	"math"

	"repliflow/internal/numeric"
)

// The Pareto list of the bi-criteria front passes: the pipeline DP's
// per-state lists (internal/exhaustive), the fork and fork-join
// partition scans, and the comm-pipeline interval scan
// (internal/fullmodel). A list holds non-dominated (period, latency)
// points by increasing period and strictly decreasing latency, under the
// numeric tolerance: no point weakly dominates another.

// Point is one (period, latency) point of a Pareto list.
type Point struct{ Period, Latency float64 }

// Leq is numeric.LessEq on the passes' costs, which are non-negative:
// it decides by the same float operations as numeric.Eq without that
// function's general-case branches, and the d <= MaxFloat64 test keeps
// an infinite a from passing (TestLeqMatchesLessEq pins the two
// together). The passes spend most of their time in these comparisons:
// on the 7-stage, 10-processor pipeline of the streaming tests, a
// pipeline pass took 53 ms with Leq against 76 ms with numeric.LessEq,
// with and without data-parallelism (5 alternated pairs of test
// binaries, -cpu 1, 2-vCPU container).
//
// Leq(a, b) is monotone in b: a point that weakly dominates a lower
// bound on a cost weakly dominates the cost, which is what lets a pass
// cut a partial mapping on its bounds.
func Leq(a, b float64) bool {
	if a <= b {
		return true
	}
	d := a - b
	return d <= numeric.Eps*a && d <= math.MaxFloat64
}

// Dominated reports whether a point of list weakly dominates (period,
// latency). The list rises in period and falls in latency, so the last
// point within the period is the only one to test.
func Dominated(list []Point, period, latency float64) bool {
	k := -1
	for k+1 < len(list) && Leq(list[k+1].Period, period) {
		k++
	}
	return k >= 0 && Leq(list[k].Latency, latency)
}

// Optimum returns the optimum of a bounded solve as the Pareto list of a
// completed pass proves it. Minimizing the period under a latency bound,
// it is the period of the first point whose latency is within the bound;
// minimizing the latency under a period bound, the latency of the last
// point whose period is within it. +Inf bounds neither. ok is false when
// no point is within the bound. The bound test is Leq, the bounded
// solves' own numeric.LessEq.
func Optimum(list []Point, minimizePeriod bool, bound float64) (v float64, ok bool) {
	if minimizePeriod {
		for _, pt := range list {
			if Leq(pt.Latency, bound) {
				return pt.Period, true
			}
		}
		return 0, false
	}
	for k := len(list) - 1; k >= 0; k-- {
		if Leq(list[k].Period, bound) {
			return list[k].Latency, true
		}
	}
	return 0, false
}

// Append adds pt, whose period is no less than any on the list, and
// keeps the list non-dominated: pt is dropped when the last point weakly
// dominates it, and drops the last points it dominates in turn. It is
// Insert for a pass that meets its points in period order.
func Append(list []Point, pt Point) []Point {
	for len(list) > 0 {
		last := list[len(list)-1]
		if Leq(last.Latency, pt.Latency) {
			return list
		}
		if !Leq(pt.Period, last.Period) {
			break
		}
		list = list[:len(list)-1]
	}
	return append(list, pt)
}

// Insert adds pt, at any period, and keeps the list non-dominated: pt is
// dropped when a point weakly dominates it; otherwise it drops every
// point it weakly dominates and takes its place in period order. A point
// left before it has a smaller period and a larger latency (else it
// would dominate pt), and one left after it a larger period and a
// smaller latency, so the order holds. The list is edited in place.
func Insert(list []Point, pt Point) []Point {
	if Dominated(list, pt.Period, pt.Latency) {
		return list
	}
	n := 0
	for _, q := range list {
		if !Leq(pt.Period, q.Period) || !Leq(pt.Latency, q.Latency) {
			list[n] = q
			n++
		}
	}
	k := 0
	for k < n && list[k].Period < pt.Period {
		k++
	}
	list = append(list[:n], Point{})
	copy(list[k+1:], list[k:n])
	list[k] = pt
	return list
}
