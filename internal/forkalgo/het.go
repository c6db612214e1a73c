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

// hetScratch holds the Theorem 14 W(i,j) dynamic program of one solve:
// flat W and split tables of stride p, one p*p region for each of the up
// to three segments of a configuration. Every probe and configuration
// reuses them, so a solve allocates them once; it is per-solve state.
type hetScratch struct {
	p        int
	w, split []int
}

func newHetScratch(p int) *hetScratch {
	return &hetScratch{p: p, w: make([]int, 3*p*p), split: make([]int, 3*p*p)}
}

// build runs the W(i,j) program over segment k of a configuration and
// returns the maximum number of leaves a partition of the segment into
// intervals handles, or negInf if no valid partition exists. A split of -1
// keeps [i..j] as a single interval, whose capacity W(i,j) then is.
func (h *hetScratch) build(k int, b *hetBounds, sg segment) int {
	size, p := sg.to-sg.from+1, h.p
	w, split := h.w[k*p*p:], h.split[k*p*p:]
	for i := size - 1; i >= 0; i-- {
		kind := normalInterval // only the segment's first interval is special
		if i == 0 {
			kind = sg.kind
		}
		for j := i; j < size; j++ {
			best := b.capOf(kind, sg.from+i, sg.from+j)
			bestSplit := -1
			for m := i; m < j; m++ {
				l, r := w[i*p+m], w[(m+1)*p+j]
				if l == negInf || r == negInf {
					continue
				}
				if v := l + r; v > best {
					best = v
					bestSplit = m
				}
			}
			w[i*p+j] = best
			split[i*p+j] = bestSplit
		}
	}
	return w[size-1]
}

// leaves appends the leaf intervals (first, last, cap) of an optimal
// partition of [i..j] in segment k's tables, in processor order.
func (h *hetScratch) leaves(k, i, j int, out []procInterval) []procInterval {
	at := k*h.p*h.p + i*h.p + j
	if m := h.split[at]; m >= 0 {
		return h.leaves(k, m+1, j, h.leaves(k, i, m, out))
	}
	return append(out, procInterval{first: i, last: j, cap: h.w[at]})
}

// procInterval is a consecutive range of sorted processors and its leaf capacity.
type procInterval struct{ first, last, cap int }

// The kinds of the first interval of a segment of sorted processors.
const (
	normalInterval = iota
	rootInterval   // in charge of S0
	joinInterval   // in charge of S_{n+1}
)

// segment is a range [from, to] of a configuration's sorted processors
// whose first interval is of the given kind.
type segment struct{ from, to, kind int }

// hetBounds are the bounds of one Theorem 14 configuration: the leaf
// capacity of an interval depends on them and on nothing else.
type hetBounds struct {
	in                            *instance
	s                             []float64
	K, leafDeadline, othersBudget float64
	q0, jq                        int
}

// leafCap converts a work budget into a leaf count, clamped to [0, n].
func (b *hetBounds) leafCap(budget float64) int {
	n := b.in.n
	if n == 0 || math.IsInf(budget, 1) {
		return n
	}
	return min(max(numeric.FloorDiv(budget, b.in.w), 0), n)
}

// capOf is the leaf capacity of the interval [i..j], or negInf when it
// cannot hold its special stage within the bounds.
func (b *hetBounds) capOf(kind, i, j int) int {
	in, s, K := b.in, b.s, b.K
	count := float64(j - i + 1)
	work := K * s[i] * count // the work the interval runs per period K
	switch kind {
	case rootInterval:
		base := in.root
		if b.jq == b.q0 {
			base += in.join
		}
		// Period: (w0 [+ wjoin] + m*w) / (count * s_i) <= K; the
		// root-block leaves complete at (w0 + m*w)/s_i <= leafDeadline.
		if numeric.Greater(base/(count*s[i]), K) || numeric.Greater(in.root/s[i], b.leafDeadline) {
			return negInf
		}
		return min(b.leafCap(work-base), b.leafCap(b.leafDeadline*s[i]-in.root))
	case joinInterval:
		// Period: (m*w + wjoin)/(count * s_i) <= K; the join interval's
		// own leaves complete at rootDone + m*w/s_i <= leafDeadline.
		if numeric.Greater(in.join/(count*s[i]), K) {
			return negInf
		}
		return min(b.leafCap(work-in.join), b.leafCap(b.othersBudget*s[i]))
	}
	return min(b.leafCap(work), b.leafCap(b.othersBudget*s[i]))
}

// hetConfig is the Theorem 14 feasibility check, with its Section 6.3
// extension, for fixed period and latency bounds K and L. procs are the q
// enrolled processors and s their speeds, by non-decreasing speed; q0 is
// the first processor of the interval in charge of S0 and jq that of the
// interval in charge of S_{n+1}. jq == q0 places S_{n+1} with S0, the case
// the paper singles out and the only one without a join. The W(i,j)
// tables are built in h. On success it returns a complete mapping.
func hetConfig(in *instance, h *hetScratch, procs []int, s []float64, q0, jq int, K, L float64) (mapping.ForkJoinMapping, bool) {
	n, q := in.n, len(s)
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
	b := hetBounds{in: in, s: s, K: K, leafDeadline: leafDeadline, othersBudget: othersBudget, q0: q0, jq: jq}

	// Split the sorted processor range at the special positions: each
	// segment [from, to] starts with an interval of its kind.
	// Without a separate join interval the third segment is empty.
	segs := [3]segment{{0, q0 - 1, normalInterval}, {q0, q - 1, rootInterval}, {q, q - 1, normalInterval}}
	if jq != q0 {
		a, c, ka, kc := q0, jq, rootInterval, joinInterval
		if a > c {
			a, c, ka, kc = c, a, kc, ka
		}
		segs = [3]segment{{0, a - 1, normalInterval}, {a, c - 1, ka}, {c, q - 1, kc}}
	}
	total := 0
	for k, sg := range segs {
		if sg.to < sg.from {
			continue
		}
		t := h.build(k, &b, sg)
		if t == negInf {
			return mapping.ForkJoinMapping{}, false
		}
		total += t
	}
	if total < n {
		return mapping.ForkJoinMapping{}, false
	}

	// Assemble the mapping: distribute the n leaves over the intervals,
	// never exceeding a capacity.
	remaining := n
	var m mapping.ForkJoinMapping
	for k, sg := range segs {
		if sg.to < sg.from {
			continue
		}
		for idx, iv := range h.leaves(k, 0, sg.to-sg.from, nil) {
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
func hetFeasible(in *instance, h *hetScratch, order []int, speeds []float64, K, L float64) (mapping.ForkJoinMapping, bool) {
	p := len(order)
	for q := 1; q <= p; q++ {
		for q0 := 0; q0 < q; q0++ {
			for jq := 0; jq < q; jq++ {
				if !in.hasJoin && jq != q0 {
					continue
				}
				if m, ok := hetConfig(in, h, order[p-q:], speeds[p-q:], q0, jq, K, L); ok {
					return m, true
				}
			}
		}
	}
	return mapping.ForkJoinMapping{}, false
}

// hetSearch bisects the candidates with the Theorem 14 feasibility check,
// bound maps a candidate to the check's (K, L) bounds. The probes share
// one scratch, allocated here.
func hetSearch(in instance, cands []float64, bounds func(c float64) (K, L float64)) (mapping.ForkJoinMapping, bool) {
	order := in.pl.SortedBySpeed()
	speeds := make([]float64, len(order))
	for u, idx := range order {
		speeds[u] = in.pl.Speeds[idx]
	}
	h := newHetScratch(len(order))
	return bisect(cands, func(c float64) (mapping.ForkJoinMapping, bool) {
		K, L := bounds(c)
		return hetFeasible(&in, h, order, speeds, K, L)
	})
}

// latencyCandidates lists the finite latency candidate set: the leaf
// completion times (w0 + m*w)/s1 and w0/s1 + m*w/s2, plus with a join a
// join delay wjoin/s3, over all the given speeds s1, s2 and s3.
func latencyCandidates(in instance, speeds []float64) []float64 {
	var cands []float64
	for _, s1 := range speeds {
		for m := 0; m <= in.n; m++ {
			cands = append(cands, (in.root+float64(m)*in.w)/s1)
			if m > 0 {
				for _, s2 := range speeds {
					cands = append(cands, in.root/s1+float64(m)*in.w/s2)
				}
			}
		}
	}
	if in.hasJoin {
		leafDone := cands
		cands = nil
		for _, ld := range leafDone {
			for _, s3 := range speeds {
				cands = append(cands, ld+in.join/s3)
			}
		}
	}
	return numeric.DedupSorted(cands)
}

// hetLatency minimizes the latency under a period bound over the latency
// candidates of the platform's distinct speeds.
func hetLatency(in instance, maxPeriod float64) (mapping.ForkJoinMapping, bool) {
	return hetSearch(in, latencyCandidates(in, in.pl.DistinctSpeeds()), func(L float64) (float64, float64) { return maxPeriod, L })
}

// hetPeriod minimizes the period under a latency bound over the period
// candidates of the platform's distinct speeds.
func hetPeriod(in instance, maxLatency float64) (mapping.ForkJoinMapping, bool) {
	cands := periodCandidates(in, in.pl.DistinctSpeeds(), in.pl.Processors())
	return hetSearch(in, cands, func(K float64) (float64, float64) { return K, maxLatency })
}

// Theorem14 implements Theorem 14 and its Section 6.3 extension for a
// homogeneous fork graph on a Heterogeneous platform without
// data-parallelism: the minimum latency under a period bound, or with
// minimizePeriod the minimum period under a latency bound, each by binary
// search over its finite candidate set. ok is false when the bound is
// infeasible.
func Theorem14(fj workflow.ForkJoin, join bool, pl platform.Platform, minimizePeriod bool, bound float64) (ForkJoinResult, bool, error) {
	s := hetLatency
	if minimizePeriod {
		s = hetPeriod
	}
	return solve(fj, join, pl, false, false, s, bound)
}
