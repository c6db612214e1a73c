// Package exhaustive provides exact optimal mappers by exponential-time
// search. They serve two purposes in the reproduction of Benoit & Robert
// (RR-6308):
//
//   - ground truth for every polynomial algorithm of the paper (the
//     algorithm's optimum must coincide with the exhaustive optimum on
//     randomized instances), and
//   - exact baselines for the NP-hard problem instances, against which the
//     polynomial heuristics are measured.
//
// Pipelines are solved by a dynamic program over (next stage, set of used
// processors) — exact because interval costs are independent given the
// processor subset. Fork-joins enumerate the set partitions of the
// stages (restricted growth strings) and assign disjoint processor
// subsets and modes block by block, and forks run the same scan as
// fork-joins without a join. The scan is a branch and bound: the partial
// cost of the blocks placed so far, raised by a look-ahead bound on the
// blocks still to place (their weight over the free processors' speed),
// never exceeds a completion's, so a subtree is cut once the install
// rule rejects it (see scan.go).
//
// A processor enters every cost of the model only through its speed, so
// two processors of equal speed are interchangeable: swapping them in a
// mapping changes no period and no latency. Every search here picks
// processor subsets in a descending submask loop, and skips a subset
// that only relabels one the loop met earlier (see relabels): of the
// subsets with the same number of processors of each speed, it keeps
// the one taking the highest-index free processors of every speed. The
// skipped subtrees tie the kept one, cost for cost, and no tie replaces
// an incumbent or adds a Pareto point, so every answer is unchanged.
// The pipeline DP then only reaches used-processor masks that hold the
// highest-index processors of each speed: 144 of the 16,384 masks of 14
// processors in 3 speeds. The enumeration oracles (enumeratePipeline,
// EnumerateFork and the tests' enumerateForkJoin) and the unpruned
// searches of the tests keep every subset.
//
// All solvers are exponential in the number of processors (and, for forks,
// in the number of stages); they are intended for the small instances used
// in tests and benchmarks, up to roughly p = 12 for pipelines and
// n, p = 6 for forks.
//
// # Prepared solvers
//
// Pareto sweeps solve the same (workflow, platform) pair dozens to
// hundreds of times, varying only the bound. The prepared solvers —
// PipelinePrepared and ForkJoinPrepared (ForkPrepared) — share everything
// that does not depend on the bound across those solves: the
// per-platform subset table (built once per prepared solver, see
// buildMaskInfo, and shared read-only with its shard workers), the
// DP/enumeration scratch memory (reset by epoch counters, never
// reallocated) and the Pareto list of the last completed bi-criteria
// pass. After a pass a pipeline solve walks the pass's per-state lists
// instead of running the DP, and a fork or fork-join scan starts from
// the optimum the list proves. They keep no per-bound results: every
// solve runs its search, and repeated bounds are answered by the
// engine's result cache. Their results are
// byte-identical to the one-shot entry points, which are themselves thin
// wrappers over a prepared solver used once.
package exhaustive

import (
	"context"
	"math"
	"math/bits"

	"repliflow/internal/platform"
)

// checkpointInterval is how many search steps pass between context polls:
// frequent enough that cancellation lands within microseconds, sparse
// enough that the poll cost vanishes against the search work.
const checkpointInterval = 1024

// stepper spreads context polls over the exponential search loops. Every
// solver threads one stepper through its recursion; once the context is
// cancelled the stepper latches the error and every subsequent ok() call
// fails fast, unwinding the search.
type stepper struct {
	ctx context.Context
	// credit counts the steps left until the next context poll. The hot
	// path is a single predictable decrement-and-branch; err can only be
	// latched when credit is exhausted, so credit > 0 implies err == nil.
	credit int
	err    error
}

func newStepper(ctx context.Context) *stepper { return &stepper{ctx: ctx} }

// ok reports whether the search may continue, polling the context every
// checkpointInterval calls.
func (s *stepper) ok() bool {
	if s.credit > 0 {
		s.credit--
		return true
	}
	if s.err != nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return false
	}
	s.credit = checkpointInterval - 1
	return true
}

// reset rearms the stepper for a fresh solve on a (possibly) new context.
func (s *stepper) reset(ctx context.Context) {
	s.ctx = ctx
	s.credit = 0
	s.err = nil
}

// maskInfo caches per-subset aggregates of a platform. The inverse fields
// turn the divisions of the DP inner loops into multiplications, and procs
// is the expanded (sorted) processor list of the mask, so the hot paths
// neither divide nor allocate. max feeds the anytime lower bounds used for
// branch pruning. procs is internal scratch shared by every worker of the
// solver that owns the table: search loops alias it freely, but any
// mapping that escapes the package copies it (reconstruct, and the
// mapping Clone of a retained scan mapping) — the table must never leak
// into caller-visible results.
type maskInfo struct {
	count int
	min   float64
	max   float64
	sum   float64
	// invMin is 1/min: delay of a replicated group of weight w is w*invMin.
	invMin float64
	// invSum is 1/sum: cost of a data-parallel group of weight w is w*invSum.
	invSum float64
	// perInv is 1/(count*min): period of a replicated group of weight w is
	// w*perInv.
	perInv float64
	// procs is the sorted processor index list of the mask.
	procs []int
	// twins is the set of processors that share the speed of some
	// processor q of the mask and have a lower index than q (see
	// relabels).
	twins int
}

// relabels reports whether choosing the subset sub of the free
// processors free only relabels a subset the descending submask loop
// met earlier: some processor of sub has an equal-speed twin of higher
// index that is free but left out. A processor enters every cost only
// through its speed, so swapping the two maps the subtree of sub onto
// the subtree of an earlier subset with the same speeds, cost for cost.
// Among the subsets with the same number of processors of each speed,
// the one taking the highest-index free processors of every speed is
// the numerically largest, so it is the one the loop meets first, and
// the only one relabels keeps. A used-processor mask built from kept
// subsets only is "canonical": within each speed, the used processors
// are the highest-index ones.
func relabels(info []maskInfo, free, sub int) bool {
	return info[free&^sub].twins&sub != 0
}

// buildMaskInfo precomputes aggregates for every non-empty processor subset.
func buildMaskInfo(pl platform.Platform) []maskInfo {
	p := pl.Processors()
	info := make([]maskInfo, 1<<p)
	// One backing array for every procs slice: mask m holds OnesCount(m)
	// indices, so the total length is p * 2^(p-1).
	backing := make([]int, p<<max(p-1, 0))
	for mask := 1; mask < 1<<p; mask++ {
		// Split off the highest set bit, so sum accumulates in ascending
		// processor order — bit-identical to platform.SubsetSpeedSum over
		// the sorted procs list, which the inline enumeration costs rely
		// on to reproduce mapping.Eval* exactly.
		high := bits.Len(uint(mask)) - 1
		rest := mask &^ (1 << high)
		s := pl.Speeds[high]
		in := maskInfo{count: 1, min: s, max: s, sum: s}
		if rest == 0 {
			// A singleton, met before any larger mask with its bit:
			// its twins are the lower processors of its speed.
			for q := range high {
				if pl.Speeds[q] == s {
					in.twins |= 1 << q
				}
			}
		} else {
			prev := &info[rest]
			in = maskInfo{
				count: prev.count + 1,
				min:   math.Min(prev.min, s),
				max:   math.Max(prev.max, s),
				sum:   prev.sum + s,
				twins: prev.twins | info[1<<high].twins,
			}
		}
		in.invMin = 1 / in.min
		in.invSum = 1 / in.sum
		in.perInv = 1 / (float64(in.count) * in.min)
		procs := backing[:0:in.count]
		backing = backing[in.count:]
		for m := mask; m != 0; m &= m - 1 {
			procs = append(procs, bits.TrailingZeros(uint(m)))
		}
		in.procs = procs
		info[mask] = in
	}
	return info
}

// groupCosts returns (period, delay) of a stage group of weight w on the
// subset described by info, for the given mode.
func groupCosts(w float64, info maskInfo, dataParallel bool) (period, delay float64) {
	if dataParallel {
		c := w / info.sum
		return c, c
	}
	return w / (float64(info.count) * info.min), w / info.min
}
