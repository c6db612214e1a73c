package pipealgo

import (
	"math"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// HetLatencyNoDP implements Theorem 6: without data-parallelism the minimum
// latency on any platform is achieved by mapping the whole pipeline onto a
// fastest processor. It holds for heterogeneous and homogeneous pipelines
// alike.
func HetLatencyNoDP(p workflow.Pipeline, pl platform.Platform) (Result, error) {
	if err := checkInputs(p, pl); err != nil {
		return Result{}, err
	}
	return finish(p, pl, mapping.WholeOnProcessor(p, pl.Fastest())), nil
}

// periodCandidates returns every value m*w/(k*s) that the period of a
// replicated interval of a homogeneous pipeline can take on k <= p
// processors of one of the given speeds, sorted ascending. The Theorem 7/8
// binary searches run over this finite set, built from the platform's
// distinct speeds, which makes the returned optima exact (the paper instead
// argues a polynomial bound on the number of binary-search iterations over
// the rationals).
func periodCandidates(n int, w float64, speeds []float64, p int) []float64 {
	var cands []float64
	for _, s := range speeds {
		for k := 1; k <= p; k++ {
			for m := 1; m <= n; m++ {
				cands = append(cands, float64(m)*w/(float64(k)*s))
			}
		}
	}
	return numeric.DedupSorted(cands)
}

// thm7Assign runs the Theorem 7 dynamic program for a fixed period K and a
// fixed number q of enrolled processors: procs lists the q fastest
// processors ordered by non-decreasing speed (Lemma 3), and the program
// partitions them into consecutive intervals maximizing the number of
// stages processed within period K.
//
// W(i,j) = max( floor(K * s_i * (j-i+1) / w),  max_k W(i,k)+W(k+1,j) )
//
// It returns the per-interval stage capacities of an optimal partition when
// at least n stages fit, or nil otherwise.
type procInterval struct {
	first, last int // indices into the sorted processor slice
	cap         int // stages this interval can process within period K
}

func thm7Assign(n int, w float64, pl platform.Platform, procs []int, K float64) []procInterval {
	q := len(procs)
	// cap of the single interval [i..j]: replicate onto all its processors,
	// period = m*w/((j-i+1)*s_i) <= K.
	capOf := func(i, j int) int {
		c := numeric.FloorDiv(K*pl.Speeds[procs[i]]*float64(j-i+1), w)
		if c > n {
			c = n
		}
		return c
	}
	W := make([][]int, q)
	split := make([][]int, q) // -1 = keep as single interval
	for i := range W {
		W[i] = make([]int, q)
		split[i] = make([]int, q)
	}
	for i := q - 1; i >= 0; i-- {
		for j := i; j < q; j++ {
			best := capOf(i, j)
			bestSplit := -1
			for k := i; k < j; k++ {
				if v := W[i][k] + W[k+1][j]; v > best {
					best = v
					bestSplit = k
				}
			}
			if best > n {
				best = n // more capacity than stages is not useful
			}
			W[i][j] = best
			split[i][j] = bestSplit
		}
	}
	if W[0][q-1] < n {
		return nil
	}
	var leaves []procInterval
	var collect func(i, j int)
	collect = func(i, j int) {
		if k := split[i][j]; k >= 0 {
			collect(i, k)
			collect(k+1, j)
			return
		}
		leaves = append(leaves, procInterval{first: i, last: j, cap: capOf(i, j)})
	}
	collect(0, q-1)
	return leaves
}

// buildHomPipelineMapping turns per-processor-interval stage capacities into
// a concrete mapping of n identical stages, assigning each leaf interval a
// stage count of at most its capacity. Intervals left with zero stages are
// dropped (their processors stay idle).
func buildHomPipelineMapping(n int, pl platform.Platform, procs []int, leaves []procInterval) mapping.PipelineMapping {
	var m mapping.PipelineMapping
	remaining := n
	first := 0
	for _, leaf := range leaves {
		take := leaf.cap
		if take > remaining {
			take = remaining
		}
		if take == 0 {
			continue
		}
		set := make([]int, 0, leaf.last-leaf.first+1)
		for u := leaf.first; u <= leaf.last; u++ {
			set = append(set, procs[u])
		}
		m.Intervals = append(m.Intervals, mapping.PipelineInterval{
			First: first, Last: first + take - 1,
			Assignment: mapping.Assignment{Procs: set, Mode: mapping.Replicated},
		})
		first += take
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	return m
}

// HetHomPipelinePeriodNoDP implements Theorem 7: the optimal period of a
// homogeneous pipeline (identical stage weights) on a Heterogeneous
// platform without data-parallelism, by binary search over candidate
// periods with, at each step, a loop over the number q of enrolled
// processors and the W(i,j) dynamic program.
func HetHomPipelinePeriodNoDP(p workflow.Pipeline, pl platform.Platform) (Result, error) {
	if err := checkInputs(p, pl); err != nil {
		return Result{}, err
	}
	if !p.IsHomogeneous() {
		return Result{}, ErrNotHomogeneousPipeline
	}
	n, w := p.Stages(), p.Weights[0]
	cands := periodCandidates(n, w, pl.DistinctSpeeds(), pl.Processors())
	order := pl.SortedBySpeed()
	feasible := func(K float64) mapping.PipelineMapping {
		for q := 1; q <= len(order); q++ {
			procs := order[len(order)-q:] // the q fastest
			if leaves := thm7Assign(n, w, pl, procs, K); leaves != nil {
				return buildHomPipelineMapping(n, pl, procs, leaves)
			}
		}
		return mapping.PipelineMapping{}
	}
	lo, hi := 0, len(cands)-1
	var best mapping.PipelineMapping
	for lo <= hi {
		mid := (lo + hi) / 2
		if m := feasible(cands[mid]); len(m.Intervals) > 0 {
			best = m
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if len(best.Intervals) == 0 {
		panic("pipealgo: Theorem 7 found no feasible period (largest candidate must be feasible)")
	}
	return finish(p, pl, best), nil
}

// thm8DP solves the Theorem 8 dynamic program for fixed period bound K:
// L(m,i,j) is the minimum latency to map m identical stages onto the
// consecutive sorted processors i..j.
//
//	L(m,i,j) = min( m*w/s_i  if m*w/((j-i+1)*s_i) <= K,
//	                min_{m',k} L(m',i,k) + L(m-m',k+1,j) )
type thm8DP struct {
	w    float64
	s    []float64 // speeds of the enrolled processors, non-decreasing
	K    float64
	n, q int
	memo []float64
	seen []bool
	chM  []int // split: stages in the left part (0 = leaf)
	chK  []int // split: last processor of the left part
}

func newThm8DP(n int, w float64, speeds []float64, K float64) *thm8DP {
	q := len(speeds)
	states := (n + 1) * q * q
	return &thm8DP{
		w: w, s: speeds, K: K, n: n, q: q,
		memo: make([]float64, states),
		seen: make([]bool, states),
		chM:  make([]int, states),
		chK:  make([]int, states),
	}
}

func (d *thm8DP) id(m, i, j int) int { return (m*d.q+i)*d.q + j }

func (d *thm8DP) solve(m, i, j int) float64 {
	id := d.id(m, i, j)
	if d.seen[id] {
		return d.memo[id]
	}
	d.seen[id] = true
	best := numeric.Inf
	chM, chK := 0, 0
	// Leaf: replicate the m stages onto processors i..j.
	if per := float64(m) * d.w / (float64(j-i+1) * d.s[i]); numeric.LessEq(per, d.K) {
		best = float64(m) * d.w / d.s[i]
	}
	// Split the stages and the processors.
	for k := i; k < j; k++ {
		for m1 := 1; m1 < m; m1++ {
			left := d.solve(m1, i, k)
			if math.IsInf(left, 1) || numeric.GreaterEq(left, best) {
				continue
			}
			right := d.solve(m-m1, k+1, j)
			if v := left + right; numeric.Less(v, best) {
				best = v
				chM, chK = m1, k
			}
		}
	}
	d.memo[id] = best
	d.chM[id] = chM
	d.chK[id] = chK
	return best
}

// reconstruct appends the intervals of the optimal solution for m stages on
// processors i..j, with stages starting at stage index *first. procs maps
// the sorted index space back to platform processor indices.
func (d *thm8DP) reconstruct(m, i, j int, first *int, procs []int, out *mapping.PipelineMapping) {
	id := d.id(m, i, j)
	if d.chM[id] == 0 {
		set := make([]int, 0, j-i+1)
		for u := i; u <= j; u++ {
			set = append(set, procs[u])
		}
		out.Intervals = append(out.Intervals, mapping.PipelineInterval{
			First: *first, Last: *first + m - 1,
			Assignment: mapping.Assignment{Procs: set, Mode: mapping.Replicated},
		})
		*first += m
		return
	}
	m1, k := d.chM[id], d.chK[id]
	d.reconstruct(m1, i, k, first, procs, out)
	d.reconstruct(m-m1, k+1, j, first, procs, out)
}

// HetHomPipelineLatencyUnderPeriodNoDP implements one direction of
// Theorem 8: the minimum latency of a homogeneous pipeline on a
// Heterogeneous platform without data-parallelism, among mappings whose
// period does not exceed maxPeriod. The boolean result is false when the
// period bound is infeasible.
func HetHomPipelineLatencyUnderPeriodNoDP(p workflow.Pipeline, pl platform.Platform, maxPeriod float64) (Result, bool, error) {
	if err := checkInputs(p, pl); err != nil {
		return Result{}, false, err
	}
	if !p.IsHomogeneous() {
		return Result{}, false, ErrNotHomogeneousPipeline
	}
	n, w := p.Stages(), p.Weights[0]
	order := pl.SortedBySpeed()
	speeds := make([]float64, len(order))
	for u, idx := range order {
		speeds[u] = pl.Speeds[idx]
	}
	bestVal := numeric.Inf
	var best mapping.PipelineMapping
	for q := 1; q <= len(order); q++ {
		// The q fastest processors and their speeds.
		procs := order[len(order)-q:]
		d := newThm8DP(n, w, speeds[len(order)-q:], maxPeriod)
		if v := d.solve(n, 0, q-1); numeric.Less(v, bestVal) {
			bestVal = v
			var m mapping.PipelineMapping
			first := 0
			d.reconstruct(n, 0, q-1, &first, procs, &m)
			best = m
		}
	}
	if math.IsInf(bestVal, 1) {
		return Result{}, false, nil
	}
	return finish(p, pl, best), true, nil
}

// HetHomPipelinePeriodUnderLatencyNoDP implements the other direction of
// Theorem 8: the minimum period among mappings whose latency does not
// exceed maxLatency, via binary search over the finite candidate period
// set. The boolean result is false when the latency bound is infeasible.
func HetHomPipelinePeriodUnderLatencyNoDP(p workflow.Pipeline, pl platform.Platform, maxLatency float64) (Result, bool, error) {
	if err := checkInputs(p, pl); err != nil {
		return Result{}, false, err
	}
	if !p.IsHomogeneous() {
		return Result{}, false, ErrNotHomogeneousPipeline
	}
	cands := periodCandidates(p.Stages(), p.Weights[0], pl.DistinctSpeeds(), pl.Processors())
	lo, hi := 0, len(cands)-1
	var best Result
	found := false
	for lo <= hi {
		mid := (lo + hi) / 2
		res, ok, err := HetHomPipelineLatencyUnderPeriodNoDP(p, pl, cands[mid])
		if err != nil {
			return Result{}, false, err
		}
		if ok && numeric.LessEq(res.Cost.Latency, maxLatency) {
			best = res
			found = true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, found, nil
}
