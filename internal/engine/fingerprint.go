package engine

import (
	"encoding/binary"
	"math"

	"repliflow/internal/core"
)

// Fingerprint returns a canonical byte-exact identity of a problem instance
// under the given options: two problems share a fingerprint iff Solve is
// guaranteed to return the same solution for both. The key is a compact
// binary encoding — a graph-kind tag, then length-prefixed raw float64
// bits (which round-trip every bit of the mantissa, so instances differing
// by one ULP get distinct keys) and the options varints — built in one
// pass over a small buffer; the cached-solve hot loop pays one string
// allocation per lookup instead of the dozens a textual rendering costs.
// Options are normalized first, so the zero Options and an explicit
// DefaultOptions() collide as they should.
func Fingerprint(pr core.Problem, opts core.Options) string {
	buf := make([]byte, 0, 256)
	return string(appendFingerprint(buf, pr, opts))
}

// appendFingerprint appends the canonical encoding of (pr, opts) to b.
func appendFingerprint(b []byte, pr core.Problem, opts core.Options) []byte {
	opts = opts.Normalized()
	// The graph structure and weights are encoded by the kind's
	// AppendFingerprint capability (a distinct tag byte per kind keeps the
	// encodings prefix-free); unknown instances get the reserved '?' tag.
	b = core.AppendGraphFingerprint(pr, b)
	b = appendFloats(b, pr.Platform.Speeds)
	flags := byte(0)
	if pr.AllowDataParallel {
		flags = 1
	}
	b = append(b, flags, byte(pr.Objective))
	if pr.Objective.Bounded() {
		b = appendFloat(b, pr.Bound)
	}
	b = binary.AppendUvarint(b, uint64(opts.MaxExhaustivePipelineProcs))
	b = binary.AppendUvarint(b, uint64(opts.MaxExhaustiveForkStages))
	b = binary.AppendUvarint(b, uint64(opts.MaxExhaustiveForkProcs))
	// The anytime budget is part of the solution's identity on cells with
	// a portfolio solver: a tight-budget incumbent must never be served
	// from the cache to a generous-budget request (and vice versa), so
	// distinct budgets get distinct keys. Cells without one — polynomial
	// cells, and NP-hard cells of kinds without the Anytime capability —
	// ignore the budget entirely, so it is normalized to zero there:
	// otherwise every distinct budget (and every splitBudget rewrite)
	// would fragment the cache with byte-identical solutions.
	budget := opts.AnytimeBudget
	if budget > 0 {
		if e, _ := core.LookupSolver(core.CellKeyOf(pr)); e.Anytime == nil {
			budget = 0
		}
	}
	// Options.Parallelism is deliberately NOT encoded: exact solves are
	// byte-identical at every worker count (the determinism contract of
	// the partitioned search), so serial and parallel solves of one
	// instance share a cache entry — and the engine's per-solve slot
	// donation, which rewrites Parallelism on the fly, cannot fragment
	// the cache.
	return binary.AppendVarint(b, int64(budget))
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendFloats writes a length prefix and the raw bits of each value, so
// adjacent variable-length fields can never alias each other.
func appendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
