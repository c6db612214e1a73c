package forkalgo

import (
	"math"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Theorem10 implements Theorem 10 and its Section 6.3 extension: on a
// Homogeneous platform the period of any fork graph — homogeneous or not
// — is minimized by replicating the whole graph as one block onto all
// processors, reaching the absolute lower bound (total work)/(p*s).
// Data-parallelism cannot improve it (Lemma 1).
func Theorem10(fj workflow.ForkJoin, join bool, pl platform.Platform) (ForkJoinResult, error) {
	if err := check(fj, join, pl, true, false); err != nil {
		return ForkJoinResult{}, err
	}
	m := mapping.ReplicateAllForkJoin(fj, pl)
	m.Blocks[0].Join = join
	return finish(fj, join, pl, m), nil
}

// remDP is the Theorem 11 dynamic program for the model without
// data-parallelism: D(i,q) is the minimum over partitions of i identical
// leaves (weight w each) into replicated blocks on q identical processors
// (speed s) of the maximum block delay, subject to every block period being
// at most K. Reconstruction data records the first block (leaf count, then
// processor count).
type remDP struct {
	w, s, K float64
	n, p    int
	memo    []float64
	seen    []bool
	chK     []int // leaves in the first block
	chQ     []int // processors of the first block
}

func newRemDP(n, p int, w, s, K float64) *remDP {
	states := (n + 1) * (p + 1)
	return &remDP{
		w: w, s: s, K: K, n: n, p: p,
		memo: make([]float64, states),
		seen: make([]bool, states),
		chK:  make([]int, states),
		chQ:  make([]int, states),
	}
}

func (d *remDP) id(i, q int) int { return i*(d.p+1) + q }

func (d *remDP) solve(i, q int) float64 {
	if i == 0 {
		return 0
	}
	if q == 0 {
		return numeric.Inf
	}
	id := d.id(i, q)
	if d.seen[id] {
		return d.memo[id]
	}
	d.seen[id] = true
	best := numeric.Inf
	bk, bq := 0, 0
	for k := 1; k <= i; k++ {
		delay := float64(k) * d.w / d.s
		if numeric.GreaterEq(delay, best) {
			break // delays grow with k; larger blocks cannot improve the max
		}
		for q1 := 1; q1 <= q; q1++ {
			if numeric.Greater(float64(k)*d.w/(float64(q1)*d.s), d.K) {
				continue
			}
			rest := d.solve(i-k, q-q1)
			if v := math.Max(delay, rest); numeric.Less(v, best) {
				best = v
				bk, bq = k, q1
			}
			break // the smallest feasible q1 is optimal: more processors do not lower the delay
		}
	}
	d.memo[id] = best
	d.chK[id] = bk
	d.chQ[id] = bq
	return best
}

// blocks reconstructs the (leafCount, procCount) sequence of an optimal
// partition of i leaves on q processors.
func (d *remDP) blocks(i, q int) [][2]int {
	var out [][2]int
	for i > 0 {
		id := d.id(i, q)
		k, q1 := d.chK[id], d.chQ[id]
		if k == 0 {
			panic("forkalgo: remDP reconstruction on infeasible state")
		}
		out = append(out, [2]int{k, q1})
		i -= k
		q -= q1
	}
	return out
}

// homLatency scans the Theorem 11 configuration space and its Section 6.3
// extension for a homogeneous fork-join on a Homogeneous platform, and
// returns a mapping minimizing the latency under the period bound K; ok is
// false when K is infeasible. The root's block holds n0 leaves on q0
// processors; the leaves outside the root and join blocks go either to one
// data-parallel block (allowDP) or to replicated blocks via remDP. With a
// join, the paper's two extra loops place the join stage: in the root's
// block (case A) or in a block of its own with n1 leaves on q1 processors
// (case B). A fork is case A without a join.
func homLatency(in instance, K float64) (mapping.ForkJoinMapping, bool) {
	n, p, s, w := in.n, in.pl.Processors(), in.pl.Speeds[0], in.w
	var rd *remDP
	if !in.allowDP {
		rd = newRemDP(n, p, w, s, K)
	}

	bestLatency := numeric.Inf
	var best mapping.ForkJoinMapping
	consider := func(latency float64, m mapping.ForkJoinMapping) {
		if numeric.Less(latency, bestLatency) {
			bestLatency = latency
			best = m
		}
	}

	// middle maps the rem leaves not in the root or join blocks onto qrem
	// processors, returning (maxDelay, blocks) or false if K is infeasible.
	middle := func(rem, qrem, leafFrom, procFrom int) (float64, []mapping.ForkJoinBlock, bool) {
		if rem == 0 {
			return 0, nil, true
		}
		if qrem == 0 {
			return 0, nil, false
		}
		if in.allowDP {
			// One data-parallel block holds every remaining leaf: merging
			// data-parallel blocks never hurts on a homogeneous platform
			// (mediant inequality), and by Lemma 1 replication cannot beat
			// it either.
			d := float64(rem) * w / (float64(qrem) * s)
			if numeric.Greater(d, K) {
				return 0, nil, false
			}
			return d, []mapping.ForkJoinBlock{
				mapping.NewForkJoinBlock(false, false, leafRange(leafFrom, rem), mapping.DataParallel, procRange(procFrom, qrem)...),
			}, true
		}
		dmax := rd.solve(rem, qrem)
		if math.IsInf(dmax, 1) {
			return 0, nil, false
		}
		var blocks []mapping.ForkJoinBlock
		leaf, proc := leafFrom, procFrom
		for _, b := range rd.blocks(rem, qrem) {
			blocks = append(blocks,
				mapping.NewForkJoinBlock(false, false, leafRange(leaf, b[0]), mapping.Replicated, procRange(proc, b[1])...))
			leaf += b[0]
			proc += b[1]
		}
		return dmax, blocks, true
	}

	// rootOption is one way to map the root's block: its mode, its
	// period, the completion time of S0 (when the other blocks start
	// their leaves) and that of its own leaves.
	type rootOption struct {
		mode                        mapping.Mode
		period, rootDone, innerDone float64
	}
	// rootOptions lists the root block's options: replicated {S0 + n0
	// leaves [+ S_{n+1}]}, or S0 alone data-parallelized when the model
	// allows it.
	rootOptions := func(n0, q0 int, join float64, withJoin bool) []rootOption {
		opts := []rootOption{{
			mode:      mapping.Replicated,
			period:    (in.root + float64(n0)*w + join) / (float64(q0) * s),
			rootDone:  in.root / s,
			innerDone: (in.root + float64(n0)*w) / s,
		}}
		if n0 == 0 && in.allowDP && q0 > 1 && !withJoin {
			d := in.root / (float64(q0) * s)
			opts = append(opts, rootOption{mode: mapping.DataParallel, period: d, rootDone: d, innerDone: d})
		}
		return opts
	}

	// Case A: the join stage, if any, shares the root's block.
	for n0 := 0; n0 <= n; n0++ {
		rem := n - n0
		for q0 := 1; q0 <= p; q0++ {
			qrem := p - q0
			if rem > 0 && qrem == 0 {
				continue
			}
			for _, ro := range rootOptions(n0, q0, in.join, in.hasJoin) {
				if numeric.Greater(ro.period, K) {
					continue
				}
				dmax, blocks, ok := middle(rem, qrem, n0, q0)
				if !ok {
					continue
				}
				lat := math.Max(ro.innerDone, ro.rootDone+dmax) + in.join/s
				consider(lat, mapping.ForkJoinMapping{Blocks: append([]mapping.ForkJoinBlock{
					mapping.NewForkJoinBlock(true, in.hasJoin, leafRange(0, n0), ro.mode, procRange(0, q0)...),
				}, blocks...)})
			}
		}
	}

	// Case B: the join stage has its own block with n1 leaves on q1
	// processors.
	for n0 := 0; n0 <= n && in.hasJoin; n0++ {
		for n1 := 0; n1 <= n-n0; n1++ {
			rem := n - n0 - n1
			for q0 := 1; q0 <= p; q0++ {
				for q1 := 1; q1 <= p-q0; q1++ {
					qrem := p - q0 - q1
					if rem > 0 && qrem == 0 {
						continue
					}
					// Join block options: its period and its own delay.
					type joinOpt struct {
						mode              mapping.Mode
						period, joinDelay float64
					}
					jopts := []joinOpt{{
						mode:      mapping.Replicated,
						period:    (float64(n1)*w + in.join) / (float64(q1) * s),
						joinDelay: in.join / s,
					}}
					if n1 == 0 && in.allowDP && q1 > 1 {
						d := in.join / (float64(q1) * s)
						jopts = append(jopts, joinOpt{mode: mapping.DataParallel, period: d, joinDelay: d})
					}
					for _, ro := range rootOptions(n0, q0, 0, false) {
						if numeric.Greater(ro.period, K) {
							continue
						}
						for _, jo := range jopts {
							if numeric.Greater(jo.period, K) {
								continue
							}
							dmax, blocks, ok := middle(rem, qrem, n0+n1, q0+q1)
							if !ok {
								continue
							}
							leafDone := math.Max(ro.innerDone, ro.rootDone+math.Max(float64(n1)*w/s, dmax))
							consider(leafDone+jo.joinDelay, mapping.ForkJoinMapping{Blocks: append([]mapping.ForkJoinBlock{
								mapping.NewForkJoinBlock(true, false, leafRange(0, n0), ro.mode, procRange(0, q0)...),
								mapping.NewForkJoinBlock(false, true, leafRange(n0, n1), jo.mode, procRange(q0, q1)...),
							}, blocks...)})
						}
					}
				}
			}
		}
	}

	return best, !math.IsInf(bestLatency, 1)
}

// homPeriod is the converse bi-criteria direction of Theorem 11: the
// minimum period under a latency bound, by binary search over the finite
// period candidate set, each probe's answer priced by the graph's model.
func homPeriod(in instance, maxLatency float64) (mapping.ForkJoinMapping, bool) {
	cands := periodCandidates(in, in.pl.Speeds[:1], in.pl.Processors())
	return bisect(cands, func(K float64) (mapping.ForkJoinMapping, bool) {
		m, ok := homLatency(in, K)
		return m, ok && numeric.LessEq(in.cost(m).Latency, maxLatency)
	})
}

// Theorem11 implements Theorem 11 and its Section 6.3 extension for a
// homogeneous fork graph on a Homogeneous platform, with or without
// data-parallelism: the minimum latency under a period bound, or with
// minimizePeriod the minimum period under a latency bound. ok is false
// when the bound is infeasible.
func Theorem11(fj workflow.ForkJoin, join bool, pl platform.Platform, allowDP, minimizePeriod bool, bound float64) (ForkJoinResult, bool, error) {
	s := homLatency
	if minimizePeriod {
		s = homPeriod
	}
	return solve(fj, join, pl, true, allowDP, s, bound)
}
