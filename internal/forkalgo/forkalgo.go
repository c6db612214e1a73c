// Package forkalgo implements the polynomial mapping algorithms of Benoit &
// Robert (RR-6308) for fork and fork-join graphs:
//
//   - Theorem 10: period minimization on Homogeneous platforms (replicate
//     the whole graph on every processor), for any fork and any fork-join,
//     with or without data-parallelism.
//   - Theorem 11: latency and bi-criteria optimization of a homogeneous
//     fork on Homogeneous platforms, with and without data-parallelism, by
//     loops over (n0, q0) — the leaves sharing the root's block and its
//     processor count — combined with a dynamic program over the remaining
//     leaves.
//   - Theorem 14: any objective for a homogeneous fork on Heterogeneous
//     platforms without data-parallelism, by binary search over candidate
//     values combined with the W(i,j) dynamic program over sorted processor
//     intervals, with an extra loop over the interval in charge of S0
//     (Lemma 4 structure). The candidates come from the platform's distinct
//     speeds; one flat W(i,j) scratch per solve serves every probe and
//     configuration, so nothing is allocated per configuration.
//
// Section 6.3 extends Theorems 10, 11 and 14 to fork-join graphs by extra
// loops over the join block's composition and placement, so a fork is a
// fork-join without a join. Each theorem has one entry, Theorem10,
// Theorem11 and Theorem14, run on a fork-join with join set and on a fork
// as a fork-join without a join (join false): its answer sets no Join
// flag, and ForkJoinMapping.Fork turns it into the fork's mapping. The
// objective goes in as minimizePeriod and a bound on the other criterion,
// +Inf for none.
//
// The NP-hard instances (Theorems 12, 13, 15) have no polynomial algorithm;
// see internal/heuristics and internal/exhaustive.
package forkalgo

import (
	"errors"
	"fmt"
	"math"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// ForkJoinResult is a computed fork-join mapping with its exact cost.
type ForkJoinResult struct {
	Mapping mapping.ForkJoinMapping
	Cost    mapping.Cost
}

// ErrNotHomogeneousPlatform is returned by the Homogeneous-platform
// algorithms when processor speeds differ.
var ErrNotHomogeneousPlatform = errors.New("forkalgo: platform is not homogeneous")

// ErrNotHomogeneousFork is returned by the homogeneous-fork algorithms when
// leaf weights differ (those instances are NP-hard, Theorems 12/13/15).
var ErrNotHomogeneousFork = errors.New("forkalgo: fork leaves are not identical")

// check validates the inputs of an algorithm: the fork graph, the
// platform, whose speeds must be equal when homPlatform is set, and the
// graph's leaves, which must be identical when homGraph is set.
func check(fj workflow.ForkJoin, join bool, pl platform.Platform, homPlatform, homGraph bool) error {
	f := workflow.Fork{Root: fj.Root, Weights: fj.Weights}
	err := f.Validate()
	if join {
		err = fj.Validate()
	}
	if err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if homPlatform && !pl.IsHomogeneous() {
		return ErrNotHomogeneousPlatform
	}
	if homGraph && !f.IsHomogeneous() {
		return ErrNotHomogeneousFork
	}
	return nil
}

// instance is a homogeneous fork graph as the Theorem 11 and 14 searches
// see it. A fork is run as a fork-join without a join: join is 0 and
// hasJoin false.
type instance struct {
	fj         workflow.ForkJoin
	root, join float64
	hasJoin    bool
	n          int
	w          float64 // the leaf weight, 0 without leaves
	pl         platform.Platform
	allowDP    bool
}

// search is a Theorem 11 or 14 search under one bound.
type search func(in instance, bound float64) (mapping.ForkJoinMapping, bool)

func newInstance(fj workflow.ForkJoin, join bool, pl platform.Platform, allowDP bool) instance {
	in := instance{fj: fj, root: fj.Root, hasJoin: join, n: fj.Leaves(), pl: pl, allowDP: allowDP}
	if join {
		in.join = fj.Join
	}
	if in.n > 0 {
		in.w = fj.Weights[0]
	}
	return in
}

// cost prices a mapping by the model of the graph's own kind.
func (in *instance) cost(m mapping.ForkJoinMapping) mapping.Cost {
	return finish(in.fj, in.hasJoin, in.pl, m).Cost
}

// solve runs a search on the fork graph under bound and prices its
// answer; ok is false when no mapping meets the bound. homPlatform
// requires equal speeds. An unbounded search always finds a mapping.
func solve(fj workflow.ForkJoin, join bool, pl platform.Platform, homPlatform, allowDP bool, s search, bound float64) (ForkJoinResult, bool, error) {
	if err := check(fj, join, pl, homPlatform, true); err != nil {
		return ForkJoinResult{}, false, err
	}
	m, ok := s(newInstance(fj, join, pl, allowDP), bound)
	if !ok {
		if math.IsInf(bound, 1) {
			panic("forkalgo: unconstrained search found no mapping")
		}
		return ForkJoinResult{}, false, nil
	}
	return finish(fj, join, pl, m), true, nil
}

// bisect returns the answer of probe at the least candidate it accepts.
// Acceptance is monotone: a candidate is accepted when a smaller one is.
func bisect(cands []float64, probe func(float64) (mapping.ForkJoinMapping, bool)) (mapping.ForkJoinMapping, bool) {
	var best mapping.ForkJoinMapping
	found := false
	for lo, hi := 0, len(cands)-1; lo <= hi; {
		mid := (lo + hi) / 2
		if m, ok := probe(cands[mid]); ok {
			best, found = m, true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, found
}

// periodCandidates lists the finite set of values a block period can take
// with blocks of k <= p processors of one of the given speeds: (w0 + m*w),
// m*w, and with a join (m*w + wjoin) and (w0 + m*w + wjoin), over k*s.
func periodCandidates(in instance, speeds []float64, p int) []float64 {
	var cands []float64
	for _, s := range speeds {
		for k := 1; k <= p; k++ {
			for m := 0; m <= in.n; m++ {
				base := float64(m) * in.w
				cands = append(cands, (in.root+base)/(float64(k)*s))
				if in.hasJoin {
					cands = append(cands, (base+in.join)/(float64(k)*s), (in.root+base+in.join)/(float64(k)*s))
				}
				if m > 0 {
					cands = append(cands, base/(float64(k)*s))
				}
			}
		}
	}
	return numeric.DedupSorted(cands)
}

// finish prices a constructed mapping on the fork graph: by EvalFork on
// its fork view without a join.
func finish(fj workflow.ForkJoin, join bool, pl platform.Platform, m mapping.ForkJoinMapping) ForkJoinResult {
	c, err := mapping.EvalForkGraph(fj, join, pl, m)
	if err != nil {
		panic(fmt.Sprintf("forkalgo: constructed invalid mapping %v: %v", m, err))
	}
	return ForkJoinResult{Mapping: m, Cost: c}
}

// leafRange returns the leaf indices [from, from+count).
func leafRange(from, count int) []int {
	if count == 0 {
		return nil
	}
	ls := make([]int, count)
	for i := range ls {
		ls[i] = from + i
	}
	return ls
}

// procRange returns the processor indices [from, from+count).
func procRange(from, count int) []int {
	ps := make([]int, count)
	for i := range ps {
		ps[i] = from + i
	}
	return ps
}
