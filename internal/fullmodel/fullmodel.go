// Package fullmodel implements the general, communication-aware model of
// Benoit & Robert (RR-6308, Sections 3.2-3.3) for pipeline graphs: stages
// carry data sizes delta_0..delta_n, the platform carries a bandwidth
// matrix (plus the special input/output processors Pin and Pout), and an
// interval mapping assigns each interval of consecutive stages to one
// distinct processor. The period and latency follow the paper's
// Equations (1) and (2):
//
//	T_period  = max_j [ d_{dj-1}/b(alloc(j-1),alloc(j)) + W_j/s(alloc(j))
//	                    + d_{ej}/b(alloc(j),alloc(j+1)) ]
//	T_latency = sum_j [ same three terms ]
//
// with alloc(0) = Pin and alloc(m+1) = Pout.
//
// The paper explains (Section 3.3) why replication and data-parallelism
// have no clean cost model once communications enter the picture; this
// package therefore covers the plain interval-mapping model, serving as
// the paper's "future work" bridge: dynamic programming optimizers for
// fully homogeneous platforms (in the style of Subhlok & Vondran) and an
// exact exponential solver for heterogeneous ones. Setting all data sizes
// to zero recovers the simplified model without replication, which the
// tests exploit for cross-validation.
package fullmodel

import (
	"errors"
	"fmt"
	"strings"

	"repliflow/internal/numeric"
)

// Pipeline is a pipeline whose stages also carry the data sizes of
// Figure 1: Data[k] is delta_k, the size of the output of stage S_k
// (Data[0] = delta_0 is the input of S_1 from the outside world, Data[n]
// the final output). len(Data) = len(Weights) + 1.
type Pipeline struct {
	Weights []float64
	Data    []float64
}

// NewPipeline builds a communication-aware pipeline.
func NewPipeline(weights, data []float64) Pipeline {
	return Pipeline{
		Weights: append([]float64(nil), weights...),
		Data:    append([]float64(nil), data...),
	}
}

// Stages returns the number of stages.
func (p Pipeline) Stages() int { return len(p.Weights) }

// IntervalWork returns the sum of weights of stages i..j (0-indexed).
func (p Pipeline) IntervalWork(i, j int) float64 {
	var s float64
	for k := i; k <= j; k++ {
		s += p.Weights[k]
	}
	return s
}

// Validate checks the pipeline is well formed.
func (p Pipeline) Validate() error {
	if len(p.Weights) == 0 {
		return errors.New("fullmodel: pipeline has no stage")
	}
	if len(p.Data) != len(p.Weights)+1 {
		return fmt.Errorf("fullmodel: %d data sizes for %d stages (want n+1)", len(p.Data), len(p.Weights))
	}
	for i, w := range p.Weights {
		if w <= 0 {
			return fmt.Errorf("fullmodel: stage S%d has non-positive weight %v", i+1, w)
		}
	}
	for i, d := range p.Data {
		if d < 0 {
			return fmt.Errorf("fullmodel: negative data size delta_%d = %v", i, d)
		}
	}
	return nil
}

// Platform is a set of processors with speeds and a full bandwidth
// description. Two virtual processors Pin and Pout hold the workflow input
// and output (Section 3.2); InBand[u] is the bandwidth Pin -> Pu and
// OutBand[u] the bandwidth Pu -> Pout.
type Platform struct {
	Speeds  []float64
	Band    [][]float64 // Band[u][v]: bandwidth of link Pu -> Pv (u != v)
	InBand  []float64
	OutBand []float64
}

// Uniform returns a platform with the given speeds where every link —
// including those to Pin and Pout — has bandwidth b.
func Uniform(speeds []float64, b float64) Platform {
	p := len(speeds)
	pl := Platform{
		Speeds:  append([]float64(nil), speeds...),
		Band:    make([][]float64, p),
		InBand:  make([]float64, p),
		OutBand: make([]float64, p),
	}
	for u := 0; u < p; u++ {
		pl.Band[u] = make([]float64, p)
		for v := 0; v < p; v++ {
			if u != v {
				pl.Band[u][v] = b
			}
		}
		pl.InBand[u] = b
		pl.OutBand[u] = b
	}
	return pl
}

// Processors returns the number of (real) processors.
func (pl Platform) Processors() int { return len(pl.Speeds) }

// IsFullyHomogeneous reports whether all speeds and all bandwidths
// (including Pin/Pout links) are identical — the setting of the
// Subhlok-Vondran dynamic programs.
func (pl Platform) IsFullyHomogeneous() bool {
	if !uniformSpeeds(pl.Speeds) {
		return false
	}
	b0 := pl.InBand[0]
	for u := range pl.Speeds {
		if !numeric.Eq(pl.InBand[u], b0) || !numeric.Eq(pl.OutBand[u], b0) {
			return false
		}
		for v := range pl.Speeds {
			if u != v && !numeric.Eq(pl.Band[u][v], b0) {
				return false
			}
		}
	}
	return true
}

// uniformSpeeds reports whether all speeds are identical.
func uniformSpeeds(speeds []float64) bool {
	for _, s := range speeds {
		if !numeric.Eq(s, speeds[0]) {
			return false
		}
	}
	return true
}

// Validate checks the platform is well formed.
func (pl Platform) Validate() error {
	p := len(pl.Speeds)
	if p == 0 {
		return errors.New("fullmodel: no processor")
	}
	if len(pl.Band) != p || len(pl.InBand) != p || len(pl.OutBand) != p {
		return errors.New("fullmodel: bandwidth tables do not match the processor count")
	}
	for u, s := range pl.Speeds {
		if s <= 0 {
			return fmt.Errorf("fullmodel: processor P%d has non-positive speed %v", u+1, s)
		}
		if len(pl.Band[u]) != p {
			return fmt.Errorf("fullmodel: bandwidth row %d has wrong length", u)
		}
		if pl.InBand[u] <= 0 || pl.OutBand[u] <= 0 {
			return fmt.Errorf("fullmodel: non-positive Pin/Pout bandwidth at P%d", u+1)
		}
		for v, b := range pl.Band[u] {
			if u != v && b <= 0 {
				return fmt.Errorf("fullmodel: non-positive bandwidth P%d -> P%d", u+1, v+1)
			}
		}
	}
	return nil
}

// Mapping assigns interval j (stages Bounds[j-1]..Bounds[j]-1, with an
// implicit leading 0) to processor Alloc[j]. Processors must be distinct.
type Mapping struct {
	Bounds []int // exclusive end of each interval, ascending, last = n
	Alloc  []int // processor of each interval
}

// Intervals returns the number of intervals.
func (m Mapping) Intervals() int { return len(m.Bounds) }

// String renders the mapping in the compact interval form of the
// simplified-model mappings.
func (m Mapping) String() string {
	parts := make([]string, len(m.Bounds))
	first := 0
	for j, end := range m.Bounds {
		span := fmt.Sprintf("S%d", first+1)
		if end-1 != first {
			span = fmt.Sprintf("S%d..S%d", first+1, end)
		}
		parts[j] = fmt.Sprintf("[%s on P%d]", span, m.Alloc[j]+1)
		first = end
	}
	return strings.Join(parts, " ")
}

// Validate checks the mapping against the pipeline and platform.
func Validate(p Pipeline, pl Platform, m Mapping) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(m.Bounds) == 0 || len(m.Bounds) != len(m.Alloc) {
		return errors.New("fullmodel: mapping bounds/alloc mismatch or empty")
	}
	prev := 0
	seen := make(map[int]bool)
	for j, end := range m.Bounds {
		if end <= prev {
			return fmt.Errorf("fullmodel: interval %d empty or out of order", j)
		}
		prev = end
		u := m.Alloc[j]
		if u < 0 || u >= pl.Processors() {
			return fmt.Errorf("fullmodel: interval %d allocated to invalid processor %d", j, u)
		}
		if seen[u] {
			return fmt.Errorf("fullmodel: processor P%d allocated twice", u+1)
		}
		seen[u] = true
	}
	if prev != p.Stages() {
		return fmt.Errorf("fullmodel: intervals cover [0,%d), want [0,%d)", prev, p.Stages())
	}
	return nil
}

// intervalCost returns the Equation (1) bracket of one interval: input
// communication + computation + output communication. prev is the
// processor of the previous interval (-1 = Pin), next the processor of the
// following interval (-1 = Pout).
func intervalCost(p Pipeline, pl Platform, first, last, proc, prev, next int) float64 {
	return intervalCostW(p, pl, p.IntervalWork(first, last), first, last, proc, prev, next)
}

// intervalCostW is intervalCost with the interval work precomputed. The
// prepared solvers pass entries of a work table built by the same
// sequential summation as IntervalWork, so the bracket value is
// bit-identical either way.
func intervalCostW(p Pipeline, pl Platform, work float64, first, last, proc, prev, next int) float64 {
	var in float64
	if prev < 0 {
		in = p.Data[first] / pl.InBand[proc]
	} else {
		in = p.Data[first] / pl.Band[prev][proc]
	}
	var out float64
	if next < 0 {
		out = p.Data[last+1] / pl.OutBand[proc]
	} else {
		out = p.Data[last+1] / pl.Band[proc][next]
	}
	return in + work/pl.Speeds[proc] + out
}

// Cost is the (period, latency) of a mapping.
type Cost struct {
	Period  float64
	Latency float64
}

// Eval computes Equations (1) and (2) for a validated mapping.
func Eval(p Pipeline, pl Platform, m Mapping) (Cost, error) {
	if err := Validate(p, pl, m); err != nil {
		return Cost{}, err
	}
	return evalTrusted(p, pl, m), nil
}

// evalTrusted is Eval without the validation pass, for mappings that are
// valid by construction (DP reconstructions, enumeration leaves). Both
// entry points share this loop, so their costs are bit-identical.
func evalTrusted(p Pipeline, pl Platform, m Mapping) Cost {
	var c Cost
	first := 0
	for j, end := range m.Bounds {
		prev, next := -1, -1
		if j > 0 {
			prev = m.Alloc[j-1]
		}
		if j < len(m.Bounds)-1 {
			next = m.Alloc[j+1]
		}
		v := intervalCost(p, pl, first, end-1, m.Alloc[j], prev, next)
		if v > c.Period {
			c.Period = v
		}
		c.Latency += v
		first = end
	}
	return c
}
