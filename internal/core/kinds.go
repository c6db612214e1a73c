package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repliflow/internal/workflow"
)

// KindSpec is the capability descriptor of one workflow kind. The
// dispatcher used to switch on the closed three-value workflow.Kind enum
// in half a dozen places (validation, cell-key derivation,
// classification, exhaustive limits, the parallel-search crossover, the
// anytime portfolio, RNG seeding);
// every one of those switches is now a capability lookup on the
// registered spec, so adding a kind means registering one spec whose
// Classify tree returns its Table-1-style cells — no dispatcher edits.
// Capabilities marked optional may be nil; the dispatcher then degrades
// as documented on the field.
type KindSpec struct {
	Kind workflow.Kind
	// Name is the stable wire name of the kind (workflow.Kind.String()),
	// used by the instance codec and the HTTP query parameters.
	Name string

	// HasGraph reports whether pr carries this kind's graph field.
	HasGraph func(pr Problem) bool
	// ValidateGraph validates the graph field (HasGraph must hold).
	ValidateGraph func(pr Problem) error
	// GraphHomogeneous is the graph-homogeneity axis of the kind's cells.
	GraphHomogeneous func(pr Problem) bool
	// PlatformHomogeneous overrides the platform-homogeneity axis. Nil
	// uses pr.Platform.IsHomogeneous(); communication-aware kinds use the
	// stricter fully-homogeneous test that includes bandwidths.
	PlatformHomogeneous func(pr Problem) bool

	// DataParallel reports whether the kind models data-parallelism:
	// kinds without it reject AllowDataParallel at validation and
	// enumerate only no-dp cells.
	DataParallel bool
	// NeedsBandwidth reports whether the kind prices communication:
	// Problem.Bandwidth is required for it and rejected for others.
	NeedsBandwidth bool

	// Classify returns the Table 1 cell of one of the kind's dispatch keys
	// (k.Kind == Kind): its classification and its solver. Every key
	// AllCellKeys enumerates for the kind resolves to a cell.
	Classify func(k CellKey) *tableCell
	// ExactlySolvable reports whether the in-limit exact path applies to
	// the (validated) instance under normalized opts.
	ExactlySolvable func(pr Problem, opts Options) bool

	// ParallelWorthwhile is the auto-mode crossover of the partitioned
	// exhaustive search. Nil means the kind has no parallel search path,
	// so auto mode always stays serial.
	ParallelWorthwhile func(pr Problem) bool
	// Anytime is the budget-bounded portfolio solver of the kind's
	// NP-hard cells. Nil means a positive AnytimeBudget falls through to
	// the cell's solver.
	Anytime SolverFunc
	// SeedMix feeds the instance's graph data into the deterministic
	// portfolio RNG seed.
	SeedMix func(pr Problem, mix func(float64))
	// AppendFingerprint appends the graph structure and weights of the
	// instance to a batch-engine fingerprint. The encoding must be
	// prefix-free across kinds (each implementation leads with a distinct
	// tag byte).
	AppendFingerprint func(pr Problem, b []byte) []byte
}

// kindSpecList is the capability registry, populated at init time by the
// per-kind solver files, sorted by kind and immutable after. Iterating it
// (specOf runs on every dispatch and fingerprint) never allocates.
var kindSpecList []*KindSpec

// registerKind installs a kind spec, panicking on duplicates or missing
// required capabilities — programming errors caught by any test run.
func registerKind(spec KindSpec) {
	if specFor(spec.Kind) != nil {
		panic(fmt.Sprintf("core: duplicate kind registration for %v", spec.Kind))
	}
	switch {
	case spec.Name == "",
		spec.HasGraph == nil,
		spec.ValidateGraph == nil,
		spec.GraphHomogeneous == nil,
		spec.Classify == nil,
		spec.ExactlySolvable == nil,
		spec.SeedMix == nil,
		spec.AppendFingerprint == nil:
		panic(fmt.Sprintf("core: kind %v registered with missing capabilities", spec.Kind))
	}
	cp := spec
	kindSpecList = append(kindSpecList, &cp)
	sort.Slice(kindSpecList, func(i, j int) bool { return kindSpecList[i].Kind < kindSpecList[j].Kind })
}

// KindSpecs returns every registered kind spec ordered by kind value. The
// returned slice is a copy; the specs themselves are shared and must not
// be mutated.
func KindSpecs() []*KindSpec {
	return append([]*KindSpec(nil), kindSpecList...)
}

// KindByName resolves a wire kind name to its spec. Unknown names fail
// with ErrKindUnsupportedKind.
func KindByName(name string) (*KindSpec, error) {
	for _, s := range KindSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, WithErrKind(ErrKindUnsupportedKind,
		fmt.Errorf("core: unsupported workflow kind %q", name))
}

// specFor returns the spec of a kind, or nil when no spec registers it.
func specFor(kind workflow.Kind) *KindSpec {
	for _, s := range kindSpecList {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

// specOf returns the spec of a problem's graph kind, or nil when no
// registered kind claims the instance (then validation rejects it).
func specOf(pr Problem) *KindSpec {
	for _, s := range kindSpecList {
		if s.HasGraph(pr) {
			return s
		}
	}
	return nil
}

// AppendGraphFingerprint appends the kind tag, structure and weights of
// the instance's graph to b — the batch-engine fingerprint hook. An
// instance no registered kind claims gets the reserved '?' tag (such
// instances fail validation, so their fingerprints never cache results).
func AppendGraphFingerprint(pr Problem, b []byte) []byte {
	spec := specOf(pr)
	if spec == nil {
		return append(b, '?')
	}
	return spec.AppendFingerprint(pr, b)
}

// fpFloat appends the raw bits of one float64 to a fingerprint, so values
// differing by one ULP stay distinct.
func fpFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// fpFloats appends a length prefix and the raw bits of each value, so
// adjacent variable-length fields can never alias each other.
func fpFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = fpFloat(b, v)
	}
	return b
}

// fpInt appends a non-negative integer as a uvarint.
func fpInt(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(v))
}
