// Package core surfaces the complete result set of Benoit & Robert
// (RR-6308) behind one API: it classifies any problem instance into its
// Table 1 cell (polynomial or NP-hard) and solves it with the matching
// algorithm — the paper's polynomial algorithms for the tractable
// cells, and exact exponential search or polynomial heuristics for the
// NP-hard ones — or, under a budget, the anytime portfolio of
// internal/anytime.
//
// # Dispatch
//
// Every instance reduces to a CellKey (graph kind, platform and graph
// homogeneity, mapping model, objective). Table 1 is written once: each
// kind's Classify tree maps a key to one of the kind's package-level
// cells, and a cell is the classification (complexity and the paper
// result backing it) together with its solver and, on cells that share
// preprocessing across objectives, its Prepare. Solve is CellKeyOf
// followed by that tree. The rest of a cell's SolverEntry is derived:
// the method from the complexity, exactness always, and the anytime
// solver from the kind. LookupSolver and ClassifyCell expose the table
// read-only to harnesses (wftable, the /v1/table endpoint of
// cmd/wfserve), and a golden file pins every cell.
//
// # Cancellation
//
// SolveContext threads its context into every cell's solver.
// Polynomial solvers complete fast enough that they only check the
// context on entry; the exhaustive searches on NP-hard cells poll it at
// loop checkpoints and return ctx.Err() promptly when cancelled. Solve
// is SolveContext with context.Background().
//
// # NP-hard cells
//
// Each NP-hard kind describes its hard cells once, in a small
// descriptor: the in-limits test (its only reader of the exhaustive caps
// in Options), its prepared exact solver, the heuristics past the caps
// and its anytime portfolio, if any. One body runs every descriptor by
// one rule: a one-shot solve is a prepared solve used once. Solve builds
// the cell Prepare shares across an objective family, and the
// portfolio's exact member is the same solver on one worker.
//
// # Anytime solving
//
// Options.AnytimeBudget switches every NP-hard cell of a kind with a
// portfolio to the kind's Anytime solver (SolverEntry.Anytime):
// heuristic seeds, simulated-annealing members and — within the
// exhaustive limits — the exact solver race until the budget or the
// caller's deadline expires, and the best incumbent is returned with a
// certified optimality gap (Solution.Gap, Solution.LowerBound) instead
// of an unbounded search or an uncertified heuristic answer.
//
// # Errors
//
// Errors carry a machine-readable ErrKind (invalid instance, missing
// solver) recoverable with ErrKindOf, so network services can map
// failures to protocol codes without parsing messages.
//
// The instance wire format consumed by the CLIs and cmd/wfserve is
// documented in docs/wire-format.md and implemented by
// internal/instance.
package core
