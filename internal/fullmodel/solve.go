package fullmodel

import (
	"math"

	"repliflow/internal/numeric"
)

// The homogeneous dynamic program of PipelinePrepared.SolveHom: on a
// fully homogeneous platform processor identities are irrelevant and only
// the partition matters (Subhlok-Vondran style). Heterogeneous platforms
// go to the exact interval scan of PipelinePrepared.SolveExact.

// homIntervalCost is the Equation (1) bracket on a fully homogeneous
// platform: only the interval matters.
func homIntervalCost(p Pipeline, s, b float64, first, last int) float64 {
	return p.Data[first]/b + p.IntervalWork(first, last)/s + p.Data[last+1]/b
}

// newHomDP allocates the (n+1)x(maxQ+1) latency and cut tables of the
// homogeneous interval DP. The prepared solver allocates them once and
// reuses them across bounds.
func newHomDP(n, maxQ int) ([][]float64, [][]int) {
	L := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for i := range L {
		L[i] = make([]float64, maxQ+1)
		cut[i] = make([]int, maxQ+1)
	}
	return L, cut
}

// homLUPInto runs the latency-under-period DP in the given tables
// (resetting them first) and reconstructs the optimal mapping. Every
// bound starts from reset tables, so reused tables cannot change a bit of
// the result.
// L[i][q]: min latency for stages i.. with q processors left.
func homLUPInto(p Pipeline, s, b float64, n, maxQ int, L [][]float64, cut [][]int, maxPeriod float64) (Mapping, bool) {
	const unset = -1.0
	for i := range L {
		for q := range L[i] {
			L[i][q] = unset
		}
	}
	var solve func(i, q int) float64
	solve = func(i, q int) float64 {
		if i == n {
			return 0
		}
		if q == 0 {
			return numeric.Inf
		}
		if L[i][q] != unset {
			return L[i][q]
		}
		best := numeric.Inf
		bestJ := -1
		for j := i; j < n; j++ {
			c := homIntervalCost(p, s, b, i, j)
			if numeric.Greater(c, maxPeriod) {
				continue
			}
			rest := solve(j+1, q-1)
			if v := c + rest; numeric.Less(v, best) {
				best = v
				bestJ = j
			}
		}
		L[i][q] = best
		cut[i][q] = bestJ
		return best
	}
	if math.IsInf(solve(0, maxQ), 1) {
		return Mapping{}, false
	}
	var m Mapping
	i, q := 0, maxQ
	for i < n {
		j := cut[i][q]
		m.Bounds = append(m.Bounds, j+1)
		m.Alloc = append(m.Alloc, len(m.Alloc))
		i, q = j+1, q-1
	}
	return m, true
}

// homPeriodCandidates lists every Equation (1) bracket value on a fully
// homogeneous platform.
func homPeriodCandidates(p Pipeline, s, b float64) []float64 {
	n := p.Stages()
	var cands []float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			cands = append(cands, homIntervalCost(p, s, b, i, j))
		}
	}
	return numeric.DedupSorted(cands)
}

// errPlatformNotHomogeneous mirrors the simplified-model errors.
var errPlatformNotHomogeneous = errHomogeneous{}

type errHomogeneous struct{}

func (errHomogeneous) Error() string {
	return "fullmodel: platform is not fully homogeneous (use SolveExact)"
}
