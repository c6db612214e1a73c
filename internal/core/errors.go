package core

import (
	"errors"
	"fmt"

	"repliflow/internal/incumbent"
)

// ErrKind classifies the errors returned by this package into
// machine-readable categories, so callers exposing solves over a wire
// protocol (cmd/wfserve) can map failures to protocol-level codes without
// parsing error strings. The kind travels with the error through
// fmt.Errorf("...: %w", err) wrapping and is recovered by ErrKindOf.
type ErrKind int

const (
	// ErrKindUnknown marks errors this package does not classify:
	// context cancellation, I/O failures wrapped by callers, and so on.
	ErrKindUnknown ErrKind = iota
	// ErrKindInvalidInstance marks ill-formed problem instances rejected
	// by Problem.Validate: zero or several graphs, non-positive weights
	// or speeds, a bounded objective without a positive bound, or an
	// unknown objective.
	ErrKindInvalidInstance
	// ErrKindNoSolver marks a dispatch cell with no solver. Unreachable:
	// every cell of a kind's Table 1 carries its solver.
	ErrKindNoSolver
	// ErrKindUnsupportedKind marks a workflow kind (or kind name) with no
	// registered capability spec: every dispatch site that used to have a
	// silent `default:` branch now returns this instead of misclassifying
	// the instance as the last enum value.
	ErrKindUnsupportedKind
)

// String implements fmt.Stringer with stable wire-friendly names.
func (k ErrKind) String() string {
	switch k {
	case ErrKindInvalidInstance:
		return "invalid-instance"
	case ErrKindNoSolver:
		return "no-solver"
	case ErrKindUnsupportedKind:
		return "unsupported-kind"
	default:
		return "unknown"
	}
}

// kindError attaches an ErrKind to an error without altering its message.
type kindError struct {
	kind ErrKind
	err  error
}

func (e *kindError) Error() string { return e.err.Error() }
func (e *kindError) Unwrap() error { return e.err }

// WithErrKind wraps err with a machine-readable kind, preserving its
// message and unwrap chain. A nil err stays nil.
func WithErrKind(kind ErrKind, err error) error {
	if err == nil {
		return nil
	}
	return &kindError{kind: kind, err: err}
}

// ErrKindOf returns the ErrKind attached to err (anywhere along its
// unwrap chain), or ErrKindUnknown for unclassified errors.
func ErrKindOf(err error) ErrKind {
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.kind
	}
	return ErrKindUnknown
}

// ErrSolverPanic is wrapped by every error Recovered returns, so callers
// can tell a recovered solver panic from other failures (errors.Is).
var ErrSolverPanic = errors.New("solver panic")

// Recovered turns the value of a recovered solver panic into an error
// wrapping ErrSolverPanic. It carries no ErrKind: the panic is a broken
// invariant of a solver, not a fault of the instance, and callers report
// it as an internal failure. A panic a search worker raised, which
// reaches its caller as an *incumbent.WorkerPanic, is reported by the
// worker's own value; the stack stays out of the message.
func Recovered(r any) error {
	if wp, ok := r.(*incumbent.WorkerPanic); ok {
		r = wp.Value
	}
	return fmt.Errorf("%w: %v", ErrSolverPanic, r)
}
