// Package numeric provides tolerant floating-point comparisons and small
// numeric helpers shared by the scheduling algorithms.
//
// All costs in the simplified model of Benoit & Robert (RR-6308) are ratios
// of sums of stage weights to sums (or minima) of processor speeds. With
// float64 arithmetic two mathematically equal costs may differ in the last
// bits, so every comparison made by a dynamic program or a binary search
// goes through this package.
package numeric

import (
	"math"
	"sort"
)

// Eps is the default relative tolerance used throughout the library.
const Eps = 1e-9

// Inf is a shorthand for positive infinity, used as the "no solution yet"
// value in dynamic programs.
var Inf = math.Inf(1)

// Eq reports whether a and b are equal within a relative tolerance of Eps
// at every magnitude. Every cost of the model is a ratio of weight sums
// to speed sums, so scaling all weights by 2^k scales every cost exactly;
// a relative tolerance decides the scaled instance as the original one,
// where an absolute one would call distinct tiny weights equal.
func Eq(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= Eps*math.Max(math.Abs(a), math.Abs(b))
}

// Less reports whether a is strictly smaller than b beyond the tolerance.
func Less(a, b float64) bool {
	return a < b && !Eq(a, b)
}

// LessEq reports whether a <= b within the tolerance.
func LessEq(a, b float64) bool {
	return a <= b || Eq(a, b)
}

// Greater reports whether a is strictly greater than b beyond the tolerance.
func Greater(a, b float64) bool {
	return a > b && !Eq(a, b)
}

// GreaterEq reports whether a >= b within the tolerance.
func GreaterEq(a, b float64) bool {
	return a >= b || Eq(a, b)
}

// FloorDiv returns floor(a/b) computed defensively: values that sit within
// the tolerance of the next integer are rounded up before flooring, so that
// exact rational bounds (e.g. K·s/w in the Theorem 7 dynamic program) do not
// lose a unit to floating-point noise.
func FloorDiv(a, b float64) int {
	if b == 0 {
		return 0
	}
	q := a / b
	f := math.Floor(q)
	if Eq(q, f+1) {
		return int(f) + 1
	}
	return int(f)
}

// DedupSorted sorts values ascending in place and removes duplicates within
// the tolerance, returning the shortened slice. It is used to build the
// finite candidate sets that the binary searches of Theorems 7, 8 and 14
// run over.
func DedupSorted(vals []float64) []float64 {
	sort.Float64s(vals)
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || !Eq(out[len(out)-1], v) {
			out = append(out, v)
		}
	}
	return out
}

// MaxFloat returns the maximum of a non-empty slice.
func MaxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// SumFloat returns the sum of a slice.
func SumFloat(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
