package core

import "fmt"

// Complexity is the Table 1 classification of a problem instance.
type Complexity int

const (
	// PolyStraightforward marks cells the paper labels "Poly (str)".
	PolyStraightforward Complexity = iota
	// PolyDP marks cells solved by a dynamic programming algorithm,
	// "Poly (DP)".
	PolyDP
	// PolyBinarySearchDP marks the starred cells solved by binary search
	// combined with dynamic programming, "Poly (*)".
	PolyBinarySearchDP
	// NPHard marks the NP-hard cells.
	NPHard
)

// String implements fmt.Stringer using the paper's Table 1 labels.
func (c Complexity) String() string {
	switch c {
	case PolyStraightforward:
		return "Poly (str)"
	case PolyDP:
		return "Poly (DP)"
	case PolyBinarySearchDP:
		return "Poly (*)"
	case NPHard:
		return "NP-hard"
	default:
		return fmt.Sprintf("Complexity(%d)", int(c))
	}
}

// Polynomial reports whether the cell admits a polynomial algorithm.
func (c Complexity) Polynomial() bool { return c != NPHard }

// Classification names the Table 1 cell of an instance and the result that
// establishes it.
type Classification struct {
	Complexity Complexity
	// Source cites the theorem (or derived entry) establishing the cell.
	Source string
}

// Classify returns the Table 1 cell of the problem. Forks and fork-joins
// share one column: a fork is a fork-join without a join (Section 6.3).
func Classify(pr Problem) (Classification, error) {
	if err := pr.Validate(); err != nil {
		return Classification{}, err
	}
	return ClassifyCell(CellKeyOf(pr)), nil
}

// ClassifyCell returns the Table 1 classification of a dispatch cell
// without constructing an instance: ClassifyCell(CellKeyOf(pr)) equals
// Classify(pr) for every valid problem pr. It lets table consumers
// (wftable, the /v1/table endpoint of cmd/wfserve) annotate cells with
// their complexity and paper source. The classification comes from the
// kind's capability spec; cells of an unregistered kind return the zero
// Classification (use KindSpecFor for the structured error).
func ClassifyCell(k CellKey) Classification {
	if spec := specFor(k.Kind); spec != nil {
		return spec.Classify(k).Classification
	}
	return Classification{}
}

// method is the algorithm family of a cell of complexity c: a closed
// form, a dynamic program or a binary search over one for the polynomial
// labels, and exhaustive search (within the limits) for NP-hard cells.
func (c Complexity) method() Method {
	switch c {
	case PolyStraightforward:
		return MethodClosedForm
	case PolyDP:
		return MethodDP
	case PolyBinarySearchDP:
		return MethodBinarySearchDP
	default:
		return MethodExhaustive
	}
}
