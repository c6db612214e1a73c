// Package workflow defines the application graphs studied by Benoit &
// Robert (RR-6308): linear pipelines (Figure 1), fork graphs (Figure 2) and
// the fork-join extension of Section 6.3.
//
// A graph is fully described by its stage weights: the simplified model of
// the paper (Section 3.4) neglects all communication, so the data sizes
// delta_k of the general model are carried for completeness and rendering
// but never enter a cost.
package workflow

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repliflow/internal/numeric"
)

// Kind identifies the shape of an application graph.
type Kind int

const (
	// KindPipeline is the linear pipeline of Figure 1.
	KindPipeline Kind = iota
	// KindFork is the fork of Figure 2: a root stage S0 followed by n
	// independent stages.
	KindFork
	// KindForkJoin is the Section 6.3 extension: a fork whose independent
	// stages all feed a final join stage S_{n+1}.
	KindForkJoin
	// KindSP is a general series-parallel DAG of named steps with
	// After(...) dependencies. Instances that collapse onto one of the
	// three shapes above are solved exactly by reduction; the rest go
	// through the spdecomp block solver.
	KindSP
	// KindCommPipeline is the communication-aware pipeline of
	// Sections 3.2-3.3 (internal/fullmodel): stage weights plus data sizes
	// delta_k and a bandwidth-annotated platform.
	KindCommPipeline
	// KindCommFork is the communication-aware one-port fork model of
	// internal/fullmodel: the root broadcasts its outputs sequentially.
	KindCommFork
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPipeline:
		return "pipeline"
	case KindFork:
		return "fork"
	case KindForkJoin:
		return "fork-join"
	case KindSP:
		return "sp"
	case KindCommPipeline:
		return "comm-pipeline"
	case KindCommFork:
		return "comm-fork"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pipeline is an n-stage linear pipeline. Weights[k] is the computation
// requirement w_{k+1} of stage S_{k+1} (stages are 1-indexed in the paper,
// 0-indexed here).
type Pipeline struct {
	Weights []float64
}

// NewPipeline returns a pipeline with the given stage weights.
func NewPipeline(weights ...float64) Pipeline {
	return Pipeline{Weights: append([]float64(nil), weights...)}
}

// HomogeneousPipeline returns an n-stage pipeline with identical weights w
// (the "homogeneous pipeline" of Table 1).
func HomogeneousPipeline(n int, w float64) Pipeline {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = w
	}
	return Pipeline{Weights: ws}
}

// Stages returns the number of stages n.
func (p Pipeline) Stages() int { return len(p.Weights) }

// TotalWork returns the sum of all stage weights.
func (p Pipeline) TotalWork() float64 { return numeric.SumFloat(p.Weights) }

// IntervalWork returns the sum of weights of stages i..j inclusive
// (0-indexed).
func (p Pipeline) IntervalWork(i, j int) float64 {
	var s float64
	for k := i; k <= j; k++ {
		s += p.Weights[k]
	}
	return s
}

// IsHomogeneous reports whether all stage weights are equal (within
// tolerance).
func (p Pipeline) IsHomogeneous() bool {
	for _, w := range p.Weights[1:] {
		if !numeric.Eq(w, p.Weights[0]) {
			return false
		}
	}
	return true
}

// Validate checks the pipeline is well formed: at least one stage and
// strictly positive weights.
func (p Pipeline) Validate() error {
	if len(p.Weights) == 0 {
		return errors.New("workflow: pipeline has no stage")
	}
	for i, w := range p.Weights {
		if w <= 0 {
			return fmt.Errorf("workflow: stage S%d has non-positive weight %v", i+1, w)
		}
	}
	return nil
}

// Fork is the (n+1)-stage fork graph of Figure 2: a root stage S0 of weight
// Root followed by n independent stages S1..Sn with weights Weights.
type Fork struct {
	Root    float64
	Weights []float64
}

// NewFork returns a fork with root weight w0 and independent stage weights.
func NewFork(root float64, weights ...float64) Fork {
	return Fork{Root: root, Weights: append([]float64(nil), weights...)}
}

// HomogeneousFork returns a fork whose n independent stages all have weight
// w (the "homogeneous fork" of Table 1: root weight w0, leaves weight w).
func HomogeneousFork(root float64, n int, w float64) Fork {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = w
	}
	return Fork{Root: root, Weights: ws}
}

// Leaves returns the number n of independent stages (excluding the root).
func (f Fork) Leaves() int { return len(f.Weights) }

// TotalWork returns w0 + sum of leaf weights.
func (f Fork) TotalWork() float64 { return f.Root + numeric.SumFloat(f.Weights) }

// IsHomogeneous reports whether all independent stages share one weight.
func (f Fork) IsHomogeneous() bool {
	if len(f.Weights) == 0 {
		return true
	}
	for _, w := range f.Weights[1:] {
		if !numeric.Eq(w, f.Weights[0]) {
			return false
		}
	}
	return true
}

// Validate checks the fork is well formed.
func (f Fork) Validate() error {
	if f.Root <= 0 {
		return fmt.Errorf("workflow: root stage has non-positive weight %v", f.Root)
	}
	for i, w := range f.Weights {
		if w <= 0 {
			return fmt.Errorf("workflow: stage S%d has non-positive weight %v", i+1, w)
		}
	}
	return nil
}

// ForkJoin is the Section 6.3 extension of Fork with a final join stage
// S_{n+1} of weight Join that gathers all results.
type ForkJoin struct {
	Root    float64
	Weights []float64
	Join    float64
}

// NewForkJoin returns a fork-join graph.
func NewForkJoin(root float64, join float64, weights ...float64) ForkJoin {
	return ForkJoin{Root: root, Join: join, Weights: append([]float64(nil), weights...)}
}

// HomogeneousForkJoin returns a fork-join whose n independent stages all
// have weight w.
func HomogeneousForkJoin(root, join float64, n int, w float64) ForkJoin {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = w
	}
	return ForkJoin{Root: root, Join: join, Weights: ws}
}

// Leaves returns the number n of independent stages.
func (fj ForkJoin) Leaves() int { return len(fj.Weights) }

// TotalWork returns w0 + sum of leaf weights + w_{n+1}.
func (fj ForkJoin) TotalWork() float64 {
	return fj.Root + numeric.SumFloat(fj.Weights) + fj.Join
}

// Fork returns the fork obtained by dropping the join stage.
func (fj ForkJoin) Fork() Fork {
	return Fork{Root: fj.Root, Weights: append([]float64(nil), fj.Weights...)}
}

// IsHomogeneous reports whether all independent stages share one weight.
// It reads fj's weights in place, without Fork's copy.
func (fj ForkJoin) IsHomogeneous() bool {
	return Fork{Root: fj.Root, Weights: fj.Weights}.IsHomogeneous()
}

// Validate checks the fork-join is well formed. It reads fj's weights in
// place, without Fork's copy.
func (fj ForkJoin) Validate() error {
	if err := (Fork{Root: fj.Root, Weights: fj.Weights}).Validate(); err != nil {
		return err
	}
	if fj.Join <= 0 {
		return fmt.Errorf("workflow: join stage has non-positive weight %v", fj.Join)
	}
	return nil
}

// RandomPipeline returns an n-stage pipeline with integer weights drawn
// uniformly from [1, maxW]. Integer weights keep the cost arithmetic exact
// in tests.
func RandomPipeline(rng *rand.Rand, n, maxW int) Pipeline {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(1 + rng.Intn(maxW))
	}
	return Pipeline{Weights: ws}
}

// RandomFork returns a fork with n leaves and integer weights in [1, maxW].
func RandomFork(rng *rand.Rand, n, maxW int) Fork {
	f := Fork{Root: float64(1 + rng.Intn(maxW)), Weights: make([]float64, n)}
	for i := range f.Weights {
		f.Weights[i] = float64(1 + rng.Intn(maxW))
	}
	return f
}

// RandomForkJoin returns a fork-join with n leaves and integer weights in
// [1, maxW].
func RandomForkJoin(rng *rand.Rand, n, maxW int) ForkJoin {
	fj := ForkJoin{
		Root:    float64(1 + rng.Intn(maxW)),
		Join:    float64(1 + rng.Intn(maxW)),
		Weights: make([]float64, n),
	}
	for i := range fj.Weights {
		fj.Weights[i] = float64(1 + rng.Intn(maxW))
	}
	return fj
}

// Render returns an ASCII rendering of the pipeline in the style of the
// paper's Figure 1: S1 -> S2 -> ... with weights below.
func (p Pipeline) Render() string {
	var top, bot strings.Builder
	for i, w := range p.Weights {
		cell := fmt.Sprintf("S%d", i+1)
		wcell := trimFloat(w)
		width := len(cell)
		if len(wcell) > width {
			width = len(wcell)
		}
		if i > 0 {
			top.WriteString(" -> ")
			bot.WriteString("    ")
		}
		top.WriteString(pad(cell, width))
		bot.WriteString(pad(wcell, width))
	}
	return top.String() + "\n" + bot.String() + "\n"
}

// Render returns an ASCII rendering of the fork in the style of Figure 2.
func (f Fork) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "S0 (%s)\n", trimFloat(f.Root))
	for i, w := range f.Weights {
		connector := "├─"
		if i == len(f.Weights)-1 {
			connector = "└─"
		}
		fmt.Fprintf(&b, " %s S%d (%s)\n", connector, i+1, trimFloat(w))
	}
	return b.String()
}

// Render returns an ASCII rendering of the fork-join graph.
func (fj ForkJoin) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "S0 (%s)\n", trimFloat(fj.Root))
	for i, w := range fj.Weights {
		fmt.Fprintf(&b, " ├─ S%d (%s) ─┐\n", i+1, trimFloat(w))
	}
	fmt.Fprintf(&b, " └──────────→ S%d (%s)\n", fj.Leaves()+1, trimFloat(fj.Join))
	return b.String()
}

func trimFloat(w float64) string {
	s := fmt.Sprintf("%g", w)
	return s
}

func pad(s string, width int) string {
	for len(s) < width {
		s += " "
	}
	return s
}
