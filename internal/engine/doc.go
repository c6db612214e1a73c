// Package engine runs repliflow solves at scale. Where internal/core
// answers one question at a time, engine answers many: a worker pool
// fans independent solves out across GOMAXPROCS, a memoization cache
// keyed by a canonical instance fingerprint deduplicates repeated
// subproblems, and the Pareto sweep runs on top of both. On exactly
// solved instances each front point is the period-under-latency solve at
// its latency: where the prepared solver has a front pass (the exact
// pipeline, fork, fork-join and comm-pipeline cells) the pass names
// every front latency at once, and each point's solve then starts from
// what the pass proved — a walk over the pipeline pass's lists, or a
// scan that knows the point's optimum and stops at the first mapping
// reaching it; elsewhere a walk alternates the
// paper's two bounded problems, latency under a period bound and period
// under a latency bound, to name them one at a time. Heuristic and
// budgeted sweeps solve the candidate-period subproblems concurrently,
// one worker round at a time.
//
// # Concurrency model
//
// An Engine is safe for concurrent use by any number of goroutines.
// The engine runs at most Workers() core solves at a time — globally,
// not per call: concurrent SolveBatch/ParetoFront calls on a shared
// Engine each bring their own goroutines but contend for the same
// solve slots, so N concurrent batches cannot oversubscribe the CPU
// N-fold. Request-level admission control (queueing whole requests, as
// cmd/wfserve does) still belongs to the caller.
//
// # Cache semantics
//
// The cache maps Fingerprint(problem, options) — a canonical, bit-exact
// rendering of the instance and the normalized exhaustive-search limits
// — to the solved Solution. Lookup is single-flight: the first goroutine
// to claim a fingerprint computes it, concurrent callers of the same
// instance wait on that computation and count as hits. Entries persist
// until Reset, or until an insert exceeds the SetCacheLimit bound
// (unbounded by default), which drops the whole cache — epoch eviction
// keeping long-running services at bounded memory. Returned solutions
// are defensive copies, so callers may mutate mappings freely. Failed
// solves are never cached: a cancelled
// computation cannot poison the fingerprint for future callers, and a
// waiter whose own context is still live retries the solve itself
// rather than adopting another caller's cancellation error. The
// fingerprint includes the anytime budget, so a tight-budget incumbent
// is never served to a generous-budget request; SolveBatch treats the
// budget as a whole-batch wall-clock target and splits it across its
// worker rounds.
//
// # Cancellation guarantees
//
// Every entry point takes a context and propagates it through
// core.SolveContext into the exhaustive searches of NP-hard cells,
// which poll cancellation at loop checkpoints — a cancelled solve
// returns ctx.Err() promptly rather than running its search to the end.
// SolveBatch cancels its remaining work on the first error; in-flight
// sibling solves observe the cancellation through the shared context.
//
// Engine.Stats exposes the cache counters (hits, misses, size) for
// monitoring; cmd/wfserve republishes them on /metrics.
package engine
