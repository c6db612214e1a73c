package forkalgo

import (
	"math"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// negInf is the capacity sentinel of the Theorem 14 dynamic program: an
// interval that cannot fit its mandatory stage (S0 or S_{n+1}) within the
// bounds poisons any partition using it, exactly as the paper's W(i,j)=-inf.
const negInf = math.MinInt32

// hetIntervals is the Theorem 14 W(i,j) dynamic program over one range of
// consecutive sorted processors. capOf(i,j) gives the leaf capacity of a
// single interval [i..j] (negInf when the interval cannot exist). The
// program maximizes the number of leaves handled by a partition of the
// whole range into intervals.
type hetIntervals struct {
	capOf func(i, j int) int
	size  int
	w     [][]int
	split [][]int
}

func newHetIntervals(size int, capOf func(i, j int) int) *hetIntervals {
	h := &hetIntervals{capOf: capOf, size: size}
	h.w = make([][]int, size)
	h.split = make([][]int, size)
	for i := range h.w {
		h.w[i] = make([]int, size)
		h.split[i] = make([]int, size)
	}
	for i := size - 1; i >= 0; i-- {
		for j := i; j < size; j++ {
			best := capOf(i, j)
			bestSplit := -1
			for k := i; k < j; k++ {
				l, r := h.w[i][k], h.w[k+1][j]
				if l == negInf || r == negInf {
					continue
				}
				if v := l + r; v > best {
					best = v
					bestSplit = k
				}
			}
			h.w[i][j] = best
			h.split[i][j] = bestSplit
		}
	}
	return h
}

// total returns the maximum number of leaves the whole range can process,
// or negInf if no valid partition exists.
func (h *hetIntervals) total() int {
	if h.size == 0 {
		return 0
	}
	return h.w[0][h.size-1]
}

// leaves returns the leaf intervals (first, last, cap) of an optimal
// partition of the whole range.
func (h *hetIntervals) leaves() []procInterval {
	var out []procInterval
	var collect func(i, j int)
	collect = func(i, j int) {
		if k := h.split[i][j]; k >= 0 {
			collect(i, k)
			collect(k+1, j)
			return
		}
		out = append(out, procInterval{first: i, last: j, cap: h.capOf(i, j)})
	}
	if h.size > 0 {
		collect(0, h.size-1)
	}
	return out
}

// procInterval mirrors the pipealgo type: a consecutive range of sorted
// processors with a leaf capacity.
type procInterval struct {
	first, last int
	cap         int
}

// The kinds of the first interval of a segment of sorted processors.
const (
	normalInterval = iota
	rootInterval   // in charge of S0
	joinInterval   // in charge of S_{n+1}
)

// hetConfig is the Theorem 14 feasibility check, with its Section 6.3
// extension, for fixed period and latency bounds K and L. procs are the q
// enrolled processors and s their speeds, by non-decreasing speed; q0 is
// the first processor of the interval in charge of S0 and jq that of the
// interval in charge of S_{n+1}. jq == q0 places S_{n+1} with S0, the case
// the paper singles out and the only one without a join. On success it
// returns a complete mapping.
func hetConfig(in instance, procs []int, s []float64, q0, jq int, K, L float64) (mapping.ForkJoinMapping, bool) {
	n, w, q := in.n, in.w, len(s)
	rootDone := in.root / s[q0]

	// Every leaf must complete by leafDeadline = L - wjoin/sJoin so that the
	// join stage finishes by L.
	leafDeadline := L
	if !math.IsInf(L, 1) {
		leafDeadline = L - in.join/s[jq]
	}
	// Non-root intervals start their leaves at rootDone.
	othersBudget := leafDeadline
	if !math.IsInf(leafDeadline, 1) {
		othersBudget = leafDeadline - rootDone
	}
	if othersBudget < 0 {
		// Tolerate rounding noise when the deadline exactly equals the root
		// completion time.
		if !numeric.GreaterEq(leafDeadline, rootDone) {
			return mapping.ForkJoinMapping{}, false
		}
		othersBudget = 0
	}

	// leafCap converts a work budget into a leaf count, clamped to [0, n].
	leafCap := func(budget float64) int {
		if n == 0 {
			return 0
		}
		if math.IsInf(budget, 1) {
			return n
		}
		return min(max(numeric.FloorDiv(budget, w), 0), n)
	}
	// capOf is the leaf capacity of the interval [i..j], or negInf when it
	// cannot hold its special stage within the bounds.
	capOf := func(kind, i, j int) int {
		count := float64(j - i + 1)
		work := K * s[i] * count // the work the interval runs per period K
		switch kind {
		case rootInterval:
			base := in.root
			if jq == q0 {
				base += in.join
			}
			// Period: (w0 [+ wjoin] + m*w) / (count * s_i) <= K; the
			// root-block leaves complete at (w0 + m*w)/s_i <= leafDeadline.
			if numeric.Greater(base/(count*s[i]), K) || numeric.Greater(in.root/s[i], leafDeadline) {
				return negInf
			}
			return min(leafCap(work-base), leafCap(leafDeadline*s[i]-in.root))
		case joinInterval:
			// Period: (m*w + wjoin)/(count * s_i) <= K; the join interval's
			// own leaves complete at rootDone + m*w/s_i <= leafDeadline.
			if numeric.Greater(in.join/(count*s[i]), K) {
				return negInf
			}
			return min(leafCap(work-in.join), leafCap(othersBudget*s[i]))
		}
		return min(leafCap(work), leafCap(othersBudget*s[i]))
	}

	// Split the sorted processor range at the special positions: each
	// segment [from, to] starts with an interval of its kind.
	type segment struct{ from, to, kind int }
	segs := []segment{{0, q0 - 1, normalInterval}, {q0, q - 1, rootInterval}}
	if jq != q0 {
		a, b, ka, kb := q0, jq, rootInterval, joinInterval
		if a > b {
			a, b, ka, kb = b, a, kb, ka
		}
		segs = []segment{{0, a - 1, normalInterval}, {a, b - 1, ka}, {b, q - 1, kb}}
	}
	total := 0
	tables := make([]*hetIntervals, len(segs))
	for k, sg := range segs {
		if sg.to < sg.from {
			continue
		}
		tables[k] = newHetIntervals(sg.to-sg.from+1, func(i, j int) int {
			if i == 0 {
				return capOf(sg.kind, sg.from, sg.from+j)
			}
			return capOf(normalInterval, sg.from+i, sg.from+j)
		})
		if tables[k].total() == negInf {
			return mapping.ForkJoinMapping{}, false
		}
		total += tables[k].total()
	}
	if total < n {
		return mapping.ForkJoinMapping{}, false
	}

	// Assemble the mapping: distribute the n leaves over the intervals,
	// never exceeding a capacity.
	remaining := n
	var m mapping.ForkJoinMapping
	for k, sg := range segs {
		if tables[k] == nil {
			continue
		}
		for idx, iv := range tables[k].leaves() {
			isRoot := sg.kind == rootInterval && idx == 0
			isJoin := (sg.kind == joinInterval && idx == 0) || (isRoot && jq == q0 && in.hasJoin)
			take := min(iv.cap, remaining)
			if take == 0 && !isRoot && !isJoin {
				continue // idle processors
			}
			set := make([]int, 0, iv.last-iv.first+1)
			for u := iv.first; u <= iv.last; u++ {
				set = append(set, procs[sg.from+u])
			}
			m.Blocks = append(m.Blocks,
				mapping.NewForkJoinBlock(isRoot, isJoin, leafRange(n-remaining, take), mapping.Replicated, set...))
			remaining -= take
		}
	}
	if remaining != 0 {
		panic("forkalgo: Theorem 14 reconstruction dropped leaves")
	}
	return m, true
}

// hetFeasible scans q, q0 and jq as prescribed by Lemma 4, the join's
// interval jq only with a join, and returns any mapping meeting both
// bounds. order lists the processors by non-decreasing speed and speeds
// their speeds: the q fastest are their suffixes.
func hetFeasible(in instance, order []int, speeds []float64, K, L float64) (mapping.ForkJoinMapping, bool) {
	p := len(order)
	for q := 1; q <= p; q++ {
		for q0 := 0; q0 < q; q0++ {
			for jq := 0; jq < q; jq++ {
				if !in.hasJoin && jq != q0 {
					continue
				}
				if m, ok := hetConfig(in, order[p-q:], speeds[p-q:], q0, jq, K, L); ok {
					return m, true
				}
			}
		}
	}
	return mapping.ForkJoinMapping{}, false
}

// hetSearch bisects the candidates with the Theorem 14 feasibility check,
// bound maps a candidate to the check's (K, L) bounds.
func hetSearch(in instance, cands []float64, bounds func(c float64) (K, L float64)) (mapping.ForkJoinMapping, bool) {
	order := in.pl.SortedBySpeed()
	speeds := make([]float64, len(order))
	for u, idx := range order {
		speeds[u] = in.pl.Speeds[idx]
	}
	return bisect(cands, func(c float64) (mapping.ForkJoinMapping, bool) {
		K, L := bounds(c)
		return hetFeasible(in, order, speeds, K, L)
	})
}

// hetLatency minimizes the latency under a period bound over the finite
// latency candidate set: the leaf completion times (w0 + m*w)/s1 and
// w0/s1 + m*w/s2, plus with a join a join delay wjoin/s3, over all speeds
// s1, s2 and s3.
func hetLatency(in instance, maxPeriod float64) (mapping.ForkJoinMapping, bool) {
	var cands []float64
	for _, s1 := range in.pl.Speeds {
		for m := 0; m <= in.n; m++ {
			cands = append(cands, (in.root+float64(m)*in.w)/s1)
			if m > 0 {
				for _, s2 := range in.pl.Speeds {
					cands = append(cands, in.root/s1+float64(m)*in.w/s2)
				}
			}
		}
	}
	if in.hasJoin {
		leafDone := cands
		cands = nil
		for _, ld := range leafDone {
			for _, s3 := range in.pl.Speeds {
				cands = append(cands, ld+in.join/s3)
			}
		}
	}
	return hetSearch(in, numeric.DedupSorted(cands), func(L float64) (float64, float64) { return maxPeriod, L })
}

// hetPeriod minimizes the period under a latency bound over the finite
// period candidate set.
func hetPeriod(in instance, maxLatency float64) (mapping.ForkJoinMapping, bool) {
	cands := periodCandidates(in, in.pl.Speeds, in.pl.Processors())
	return hetSearch(in, cands, func(K float64) (float64, float64) { return K, maxLatency })
}

// HetHomForkPeriodNoDP implements the period direction of Theorem 14: the
// optimal period of a homogeneous fork on a Heterogeneous platform without
// data-parallelism.
func HetHomForkPeriodNoDP(f workflow.Fork, pl platform.Platform) (Result, error) {
	return unconstrained(HetHomForkPeriodUnderLatencyNoDP(f, pl, numeric.Inf))
}

// HetHomForkLatencyNoDP implements the latency direction of Theorem 14.
func HetHomForkLatencyNoDP(f workflow.Fork, pl platform.Platform) (Result, error) {
	return unconstrained(HetHomForkLatencyUnderPeriodNoDP(f, pl, numeric.Inf))
}

// HetHomForkLatencyUnderPeriodNoDP minimizes the latency of a homogeneous
// fork on a Heterogeneous platform without data-parallelism, subject to a
// period bound, by binary search over the finite latency candidate set.
func HetHomForkLatencyUnderPeriodNoDP(f workflow.Fork, pl platform.Platform, maxPeriod float64) (Result, bool, error) {
	return solveFork(f, pl, false, false, hetLatency, maxPeriod)
}

// HetHomForkPeriodUnderLatencyNoDP minimizes the period of a homogeneous
// fork on a Heterogeneous platform without data-parallelism, subject to a
// latency bound, by binary search over the finite period candidate set.
func HetHomForkPeriodUnderLatencyNoDP(f workflow.Fork, pl platform.Platform, maxLatency float64) (Result, bool, error) {
	return solveFork(f, pl, false, false, hetPeriod, maxLatency)
}

// HetHomForkJoinPeriodNoDP extends the period direction of Theorem 14 to
// homogeneous fork-join graphs (Section 6.3).
func HetHomForkJoinPeriodNoDP(fj workflow.ForkJoin, pl platform.Platform) (ForkJoinResult, error) {
	return unconstrained(HetHomForkJoinPeriodUnderLatencyNoDP(fj, pl, numeric.Inf))
}

// HetHomForkJoinLatencyNoDP extends the latency direction of Theorem 14 to
// homogeneous fork-join graphs.
func HetHomForkJoinLatencyNoDP(fj workflow.ForkJoin, pl platform.Platform) (ForkJoinResult, error) {
	return unconstrained(HetHomForkJoinLatencyUnderPeriodNoDP(fj, pl, numeric.Inf))
}

// HetHomForkJoinLatencyUnderPeriodNoDP minimizes latency under a period
// bound for a homogeneous fork-join on a Heterogeneous platform.
func HetHomForkJoinLatencyUnderPeriodNoDP(fj workflow.ForkJoin, pl platform.Platform, maxPeriod float64) (ForkJoinResult, bool, error) {
	return solveForkJoin(fj, pl, false, false, hetLatency, maxPeriod)
}

// HetHomForkJoinPeriodUnderLatencyNoDP minimizes the period under a latency
// bound for a homogeneous fork-join on a Heterogeneous platform.
func HetHomForkJoinPeriodUnderLatencyNoDP(fj workflow.ForkJoin, pl platform.Platform, maxLatency float64) (ForkJoinResult, bool, error) {
	return solveForkJoin(fj, pl, false, false, hetPeriod, maxLatency)
}
