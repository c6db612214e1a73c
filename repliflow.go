// Package repliflow reproduces "Complexity results for throughput and
// latency optimization of replicated and data-parallel workflows" by Anne
// Benoit and Yves Robert (INRIA RR-6308, 2007 / IEEE CLUSTER 2007).
//
// The library maps pipeline, fork and fork-join workflow graphs onto
// homogeneous or heterogeneous platforms under the paper's simplified
// model (no communication costs), with stage replication and
// data-parallelism. It implements every polynomial algorithm of the paper
// (Theorems 1-4, 6-8, 10-11, 14 and the Section 6.3 fork-join extensions),
// exact exponential solvers and polynomial heuristics for the NP-hard
// instances (Theorems 5, 9, 12, 13, 15), the executable NP-hardness
// reductions, a discrete-event simulator validating the cost model, and a
// harness regenerating the paper's Table 1 and Section 2 example.
//
// # Quick start
//
//	pipe := repliflow.NewPipeline(14, 4, 2, 4)      // the paper's Section 2 example
//	plat := repliflow.HomogeneousPlatform(3, 1)
//	sol, err := repliflow.Solve(repliflow.Problem{
//	    Pipeline:          &pipe,
//	    Platform:          plat,
//	    AllowDataParallel: true,
//	    Objective:         repliflow.MinLatency,
//	}, repliflow.Options{})
//
// The solution carries the mapping, its exact period and latency, the
// Table 1 classification of the instance and the algorithm used.
//
// Batch and network use sit on top: SolveBatch, ParetoFrontContext and
// the incremental SweepFront run on the concurrent memoizing engine
// (internal/engine), and cmd/wfserve serves the same solves over
// HTTP/JSON using the wire format specified in docs/wire-format.md.
package repliflow

import (
	"context"

	"repliflow/internal/core"
	"repliflow/internal/engine"
	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Application graphs (Figures 1 and 2 of the paper, plus Section 6.3).
type (
	// Pipeline is an n-stage linear pipeline.
	Pipeline = workflow.Pipeline
	// Fork is a root stage followed by independent stages.
	Fork = workflow.Fork
	// ForkJoin adds a final join stage gathering all results.
	ForkJoin = workflow.ForkJoin
	// Kind is a workflow graph kind (one axis of a CellKey).
	Kind = workflow.Kind
	// Platform is a set of processors with speeds.
	Platform = platform.Platform
)

// Graph kinds.
const (
	// KindPipeline is the linear pipeline of Figure 1.
	KindPipeline = workflow.KindPipeline
	// KindFork is the fork of Figure 2.
	KindFork = workflow.KindFork
	// KindForkJoin is the Section 6.3 fork-join extension.
	KindForkJoin = workflow.KindForkJoin
)

// Mapping types and cost model (Section 3.4).
type (
	// Cost is a (period, latency) pair.
	Cost = mapping.Cost
	// Mode selects replication or data-parallelism for a stage group.
	Mode = mapping.Mode
	// Assignment binds a processor set and a mode to a stage group.
	Assignment = mapping.Assignment
	// PipelineMapping partitions a pipeline into processor-assigned
	// intervals.
	PipelineMapping = mapping.PipelineMapping
	// PipelineInterval is one interval of a PipelineMapping.
	PipelineInterval = mapping.PipelineInterval
	// ForkMapping partitions a fork into processor-assigned blocks.
	ForkMapping = mapping.ForkMapping
	// ForkBlock is one block of a ForkMapping.
	ForkBlock = mapping.ForkBlock
	// ForkJoinMapping partitions a fork-join graph into blocks.
	ForkJoinMapping = mapping.ForkJoinMapping
	// ForkJoinBlock is one block of a ForkJoinMapping.
	ForkJoinBlock = mapping.ForkJoinBlock
)

// Modes.
const (
	// Replicated processes consecutive data sets round-robin.
	Replicated = mapping.Replicated
	// DataParallel shares each data set among the processors.
	DataParallel = mapping.DataParallel
)

// Solver types.
type (
	// Problem is a full problem instance; see core.Problem.
	Problem = core.Problem
	// Solution is a solved mapping with provenance; see core.Solution.
	Solution = core.Solution
	// Options tunes the exhaustive-search limits on NP-hard cells.
	Options = core.Options
	// Objective selects what to optimize.
	Objective = core.Objective
	// Classification is a Table 1 cell.
	Classification = core.Classification
	// Complexity is the Table 1 complexity class of a cell.
	Complexity = core.Complexity
	// CellKey is a Table 1 dispatch cell.
	CellKey = core.CellKey
	// SolverEntry is the solver of one Table 1 cell; see core.SolverEntry.
	SolverEntry = core.SolverEntry
	// Engine is a concurrent, caching batch solver; see engine.Engine.
	Engine = engine.Engine
	// EngineStats is a snapshot of an Engine's cache counters, taken
	// with Engine.Stats (hits, misses, size, workers).
	EngineStats = engine.Stats
	// SweepPoint is one confirmed point of an incremental Pareto sweep;
	// see engine.SweepPoint.
	SweepPoint = engine.SweepPoint
	// SweepStats summarizes a sweep when SweepFront returns; see
	// engine.SweepStats.
	SweepStats = engine.SweepStats
	// SweepObserver receives the incremental output of SweepFront; see
	// engine.SweepObserver.
	SweepObserver = engine.SweepObserver
	// ErrKind is a machine-readable error category; see core.ErrKind.
	ErrKind = core.ErrKind
)

// Error kinds, recovered from any error of this package by ErrKindOf.
const (
	// ErrKindUnknown marks unclassified errors.
	ErrKindUnknown = core.ErrKindUnknown
	// ErrKindInvalidInstance marks ill-formed problem instances.
	ErrKindInvalidInstance = core.ErrKindInvalidInstance
	// ErrKindNoSolver marks dispatch cells with no solver (unreachable).
	ErrKindNoSolver = core.ErrKindNoSolver
)

// ErrKindOf returns the machine-readable category of an error returned
// by this package, or ErrKindUnknown for unclassified errors. It lets
// services built on the library (cmd/wfserve) map failures to protocol
// codes without parsing error strings.
func ErrKindOf(err error) ErrKind { return core.ErrKindOf(err) }

// Objectives.
const (
	// MinPeriod maximizes throughput.
	MinPeriod = core.MinPeriod
	// MinLatency minimizes response time.
	MinLatency = core.MinLatency
	// LatencyUnderPeriod minimizes latency subject to Problem.Bound on the
	// period.
	LatencyUnderPeriod = core.LatencyUnderPeriod
	// PeriodUnderLatency minimizes period subject to Problem.Bound on the
	// latency.
	PeriodUnderLatency = core.PeriodUnderLatency
)

// Complexity classes of Table 1.
const (
	// PolyStraightforward marks "Poly (str)" cells.
	PolyStraightforward = core.PolyStraightforward
	// PolyDP marks "Poly (DP)" cells.
	PolyDP = core.PolyDP
	// PolyBinarySearchDP marks "Poly (*)" cells.
	PolyBinarySearchDP = core.PolyBinarySearchDP
	// NPHard marks NP-hard cells.
	NPHard = core.NPHard
)

// NewPipeline returns a pipeline with the given stage weights.
func NewPipeline(weights ...float64) Pipeline { return workflow.NewPipeline(weights...) }

// HomogeneousPipeline returns an n-stage pipeline of identical weight w.
func HomogeneousPipeline(n int, w float64) Pipeline { return workflow.HomogeneousPipeline(n, w) }

// NewFork returns a fork with root weight root and the given leaf weights.
func NewFork(root float64, weights ...float64) Fork { return workflow.NewFork(root, weights...) }

// HomogeneousFork returns a fork with n identical leaves of weight w.
func HomogeneousFork(root float64, n int, w float64) Fork {
	return workflow.HomogeneousFork(root, n, w)
}

// NewForkJoin returns a fork-join graph.
func NewForkJoin(root, join float64, weights ...float64) ForkJoin {
	return workflow.NewForkJoin(root, join, weights...)
}

// HomogeneousForkJoin returns a fork-join with n identical leaves.
func HomogeneousForkJoin(root, join float64, n int, w float64) ForkJoin {
	return workflow.HomogeneousForkJoin(root, join, n, w)
}

// NewPipelineInterval maps stages first..last (0-indexed, inclusive) onto
// the given processors with the given mode.
func NewPipelineInterval(first, last int, mode Mode, procs ...int) PipelineInterval {
	return mapping.NewPipelineInterval(first, last, mode, procs...)
}

// NewForkBlock maps a fork block (root flag + leaf indices) onto the given
// processors.
func NewForkBlock(root bool, leaves []int, mode Mode, procs ...int) ForkBlock {
	return mapping.NewForkBlock(root, leaves, mode, procs...)
}

// NewForkJoinBlock maps a fork-join block onto the given processors.
func NewForkJoinBlock(root, join bool, leaves []int, mode Mode, procs ...int) ForkJoinBlock {
	return mapping.NewForkJoinBlock(root, join, leaves, mode, procs...)
}

// NewPlatform returns a platform with the given processor speeds.
func NewPlatform(speeds ...float64) Platform { return platform.New(speeds...) }

// HomogeneousPlatform returns p identical processors of speed s.
func HomogeneousPlatform(p int, s float64) Platform { return platform.Homogeneous(p, s) }

// Solve classifies the problem into its Table 1 cell and solves it with the
// cell's algorithm. The zero Options applies
// core.DefaultOptions.
func Solve(pr Problem, opts Options) (Solution, error) { return core.Solve(pr, opts) }

// SolveContext is Solve with cancellation: exhaustive searches on NP-hard
// cells poll ctx and return ctx.Err() promptly when it is cancelled.
func SolveContext(ctx context.Context, pr Problem, opts Options) (Solution, error) {
	return core.SolveContext(ctx, pr, opts)
}

// SolveBatch solves independent problems concurrently across GOMAXPROCS
// workers, deduplicating repeated instances through a memoization cache.
// Solutions align with the input by index; the first error aborts the
// batch. Use NewEngine to share the cache across batches.
func SolveBatch(ctx context.Context, problems []Problem, opts Options) ([]Solution, error) {
	return engine.SolveBatch(ctx, problems, opts)
}

// NewEngine returns a reusable concurrent batch solver whose cache
// persists across SolveBatch/ParetoFront calls; workers <= 0 selects
// GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// PreparedSolver solves repeated objective/bound variants of one
// (workflow, platform, model) triple with shared preprocessing and
// scratch memory; see Prepare.
type PreparedSolver = core.PreparedSolver

// Prepare returns a prepared solver for repeated solves of one instance
// that differ only in Objective and Bound (the shape of a Pareto sweep or
// a bi-criteria probe sequence). Results are byte-identical to
// SolveContext on the same problem. The boolean is false when
// preparation does not apply — the instance is invalid, budgeted
// (Options.AnytimeBudget), oversized for exhaustive search, or entirely
// polynomial — in which case plain SolveContext is the right call. A
// PreparedSolver is not safe for concurrent use; pool instances instead.
// Engine sweeps and sweep-shaped batches use this automatically.
//
// A PreparedSolver keeps no per-bound results: solving the same bound
// twice runs the search twice and returns the identical answer. Repeated
// requests are answered by the result cache of an Engine (NewEngine).
func Prepare(pr Problem, opts Options) (*PreparedSolver, bool) { return core.Prepare(pr, opts) }

// Classify returns the Table 1 cell of a problem instance.
func Classify(pr Problem) (Classification, error) { return core.Classify(pr) }

// CellKeyOf returns the Table 1 dispatch cell of a problem: the key
// LookupSolver resolves. The problem should be valid; the key of an
// invalid problem is unspecified.
func CellKeyOf(pr Problem) CellKey { return core.CellKeyOf(pr) }

// ClassifyCell returns the Table 1 classification of a dispatch cell
// without constructing an instance: ClassifyCell(CellKeyOf(pr)) equals
// the classification Classify(pr) returns for every valid pr.
func ClassifyCell(key CellKey) Classification { return core.ClassifyCell(key) }

// LookupSolver returns the solver entry of a dispatch cell,
// exposing the method, exactness and paper source backing it.
func LookupSolver(key CellKey) (SolverEntry, bool) { return core.LookupSolver(key) }

// ParetoFront returns the period/latency trade-off curve of the instance:
// non-dominated solutions ordered by increasing period. The problem's
// Objective and Bound are ignored. The sweep runs on the concurrent
// engine; the front is identical to a serial sweep.
func ParetoFront(pr Problem, opts Options) ([]Solution, error) {
	return engine.ParetoFront(context.Background(), pr, opts)
}

// ParetoFrontContext is ParetoFront with cancellation: the sweep's
// solves stop promptly with ctx.Err() when ctx is cancelled.
func ParetoFrontContext(ctx context.Context, pr Problem, opts Options) ([]Solution, error) {
	return engine.ParetoFront(ctx, pr, opts)
}

// SweepFront computes the trade-off curve incrementally: each confirmed
// front point is delivered to the observer, in increasing-period order,
// as soon as dominance proves it final — instead of after the whole
// sweep. The emitted sequence is identical to the ParetoFront slice; on
// cancellation the points already delivered form a well-formed prefix of
// the full front, and the returned stats report the sweep's units
// explored (the front pass, or the walk's steps). Use an explicit Engine
// (Engine.SweepFront) to share the cache across sweeps.
func SweepFront(ctx context.Context, pr Problem, opts Options, obs SweepObserver) (SweepStats, error) {
	return engine.New(0).SweepFront(ctx, pr, opts, obs)
}

// EvalPipeline returns the period and latency of a pipeline mapping under
// the Section 3.4 cost model, validating it first.
func EvalPipeline(p Pipeline, pl Platform, m PipelineMapping) (Cost, error) {
	return mapping.EvalPipeline(p, pl, m)
}

// EvalFork returns the period and latency of a fork mapping.
func EvalFork(f Fork, pl Platform, m ForkMapping) (Cost, error) {
	return mapping.EvalFork(f, pl, m)
}

// EvalForkJoin returns the period and latency of a fork-join mapping.
func EvalForkJoin(fj ForkJoin, pl Platform, m ForkJoinMapping) (Cost, error) {
	return mapping.EvalForkJoin(fj, pl, m)
}
