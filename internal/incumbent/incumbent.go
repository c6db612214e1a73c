// Package incumbent holds the best-so-far state shared by concurrent
// searches and the one runner of every partitioned exact search:
//
//   - Best, a mutex-guarded incumbent mapping with the offer/adopt
//     protocol of the anytime portfolio members (strict improvement
//     installs, exact results replace ties);
//   - Bound, a lock-free monotonically tightening objective bound;
//   - Run and Each, the shard runner: workers claim shards in order,
//     share a Bound and the lowest shard that reached the lower bound
//     (Shards), and Run folds the per-shard bests in shard order, so
//     the result is the serial scan's at every worker count. One shard
//     runs inline on the caller's goroutine — that is the serial
//     search. PartitionShards cuts a restricted-growth set-partition
//     enumeration into such shards; and
//   - the Pareto list of the bi-criteria front passes (Point, Leq,
//     Dominated, Append, Insert).
//
// Its users are the fork and fork-join scans and the pipeline level
// sweep and front pass of internal/exhaustive, the SP block scan of
// internal/spdecomp, and the comm-pipeline interval scan of
// internal/fullmodel.
package incumbent

import (
	"math"
	"sync"
	"sync/atomic"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
)

// Spec is the view of a search specification the incumbent needs:
// projecting a cost onto the optimized objective and deciding bound
// feasibility. anytime.Spec satisfies it.
type Spec interface {
	Objective(mapping.Cost) float64
	Feasible(mapping.Cost) bool
}

// Best is the best-so-far mapping shared by every member of a search.
// The zero value is ready to use (no incumbent yet).
type Best[M any] struct {
	mu    sync.Mutex
	m     M
	c     mapping.Cost
	found bool
}

// Offer installs a feasible candidate iff it strictly improves the
// incumbent's objective, reporting whether it did. The caller must not
// mutate m afterwards.
func (in *Best[M]) Offer(spec Spec, m M, c mapping.Cost) bool {
	if !spec.Feasible(c) {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.found && !numeric.Less(spec.Objective(c), spec.Objective(in.c)) {
		return false
	}
	in.m, in.c, in.found = m, c, true
	return true
}

// Adopt installs an exact optimum unconditionally-on-tie: exact results
// replace equal-cost incumbents so certified runs return the exact
// member's mapping.
func (in *Best[M]) Adopt(spec Spec, m M, c mapping.Cost) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.found && numeric.Less(spec.Objective(in.c), spec.Objective(c)) {
		return
	}
	in.m, in.c, in.found = m, c, true
}

// Snapshot returns the current incumbent, its cost, and whether one
// exists.
func (in *Best[M]) Snapshot() (M, mapping.Cost, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.m, in.c, in.found
}

// Bound is a shared upper bound on the objective, tightened lock-free as
// searchers find better incumbents. It only ever decreases, so a reader
// may prune any candidate strictly worse than Load() — the candidate can
// never beat the incumbent that produced the bound. Equal-or-better
// candidates must survive: deterministic merges resolve ties by a fixed
// order, and the bound must not pre-empt that.
type Bound struct {
	bits atomic.Uint64
}

// reset sets the bound to +Inf (nothing pruned).
func (b *Bound) reset() {
	b.bits.Store(math.Float64bits(math.Inf(1)))
}

// Load returns the current bound.
func (b *Bound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the bound to v if v is smaller. Comparisons are exact
// (no numeric tolerance): the bound is conservative, pruning decisions
// apply the tolerance on the read side.
func (b *Bound) Tighten(v float64) {
	nb := math.Float64bits(v)
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if b.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}
