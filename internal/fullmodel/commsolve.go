package fullmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repliflow/internal/numeric"
)

// Bandwidth describes the interconnect of a communication-aware instance
// in its canonical wire form: either a single uniform link bandwidth
// (every link, including Pin/Pout) or full tables. Exactly one
// representation must be used.
type Bandwidth struct {
	Uniform float64
	Links   [][]float64 // Links[u][v]: bandwidth Pu -> Pv (u != v)
	In      []float64   // Pin -> Pu
	Out     []float64   // Pu -> Pout
}

// Validate checks the bandwidth description against a processor count.
func (b Bandwidth) Validate(p int) error {
	if b.Uniform != 0 {
		if b.Uniform < 0 {
			return fmt.Errorf("fullmodel: negative uniform bandwidth %v", b.Uniform)
		}
		if b.Links != nil || b.In != nil || b.Out != nil {
			return errors.New("fullmodel: bandwidth gives both uniform and tables")
		}
		return nil
	}
	if len(b.Links) != p || len(b.In) != p || len(b.Out) != p {
		return fmt.Errorf("fullmodel: bandwidth tables sized for %d/%d/%d processors, want %d",
			len(b.Links), len(b.In), len(b.Out), p)
	}
	for u := 0; u < p; u++ {
		if len(b.Links[u]) != p {
			return fmt.Errorf("fullmodel: bandwidth row %d has %d entries, want %d", u, len(b.Links[u]), p)
		}
		if b.In[u] <= 0 || b.Out[u] <= 0 {
			return fmt.Errorf("fullmodel: non-positive Pin/Pout bandwidth at P%d", u+1)
		}
		for v := 0; v < p; v++ {
			if u != v && b.Links[u][v] <= 0 {
				return fmt.Errorf("fullmodel: non-positive bandwidth P%d -> P%d", u+1, v+1)
			}
		}
	}
	return nil
}

// Apply binds the bandwidth description to processor speeds, yielding the
// evaluation platform.
func (b Bandwidth) Apply(speeds []float64) Platform {
	if b.Uniform != 0 {
		return Uniform(speeds, b.Uniform)
	}
	return Platform{
		Speeds:  append([]float64(nil), speeds...),
		Band:    b.Links,
		InBand:  b.In,
		OutBand: b.Out,
	}
}

// FullyHomogeneous is Apply(speeds).IsFullyHomogeneous() without
// building the platform: in the uniform form every link has the one
// bandwidth, so only the speeds need checking.
func (b Bandwidth) FullyHomogeneous(speeds []float64) bool {
	if b.Uniform != 0 {
		return uniformSpeeds(speeds)
	}
	return Platform{Speeds: speeds, Band: b.Links, InBand: b.In, OutBand: b.Out}.IsFullyHomogeneous()
}

// IsHomogeneous reports whether all stage weights and all data sizes are
// uniform (the "homogeneous graph" axis of the dispatch key).
func (p Pipeline) IsHomogeneous() bool {
	for _, w := range p.Weights[1:] {
		if !numeric.Eq(w, p.Weights[0]) {
			return false
		}
	}
	for _, d := range p.Data[1:] {
		if !numeric.Eq(d, p.Data[0]) {
			return false
		}
	}
	return true
}

// TotalWork returns the sum of the stage weights.
func (p Pipeline) TotalWork() float64 { return numeric.SumFloat(p.Weights) }

// Leaves returns the number of independent stages of the fork.
func (f Fork) Leaves() int { return len(f.Weights) }

// TotalWork returns the root weight plus the leaf weights.
func (f Fork) TotalWork() float64 { return f.Root + numeric.SumFloat(f.Weights) }

// IsHomogeneous reports whether the leaves share one weight and one
// output size.
func (f Fork) IsHomogeneous() bool {
	if len(f.Weights) == 0 {
		return true
	}
	for i := range f.Weights[1:] {
		if !numeric.Eq(f.Weights[i+1], f.Weights[0]) || !numeric.Eq(f.Outs[i+1], f.Outs[0]) {
			return false
		}
	}
	return true
}

// Goal selects the optimized metric and the caps of a communication-aware
// solve: minimize one metric subject to optional caps (0 = unbounded).
type Goal struct {
	MinimizePeriod bool
	PeriodCap      float64
	LatencyCap     float64
}

func (g Goal) feasible(c Cost) bool {
	if g.PeriodCap > 0 && numeric.Greater(c.Period, g.PeriodCap) {
		return false
	}
	if g.LatencyCap > 0 && numeric.Greater(c.Latency, g.LatencyCap) {
		return false
	}
	return true
}

func (g Goal) value(c Cost) float64 {
	if g.MinimizePeriod {
		return c.Period
	}
	return c.Latency
}

func goalNeedsPeriodSearch(goal Goal) bool { return goal.MinimizePeriod }

// HeuristicCandidates returns deterministic seed mappings for oversized
// heterogeneous comm-aware pipelines: the whole chain on the fastest
// processor, and for each interval count a balanced work split with the
// heaviest intervals on the fastest processors.
func HeuristicCandidates(p Pipeline, pl Platform) []Mapping {
	n, procs := p.Stages(), pl.Processors()
	fastest := 0
	for u := 1; u < procs; u++ {
		if pl.Speeds[u] > pl.Speeds[fastest] {
			fastest = u
		}
	}
	out := []Mapping{{Bounds: []int{n}, Alloc: []int{fastest}}}
	maxK := procs
	if n < maxK {
		maxK = n
	}
	for k := 2; k <= maxK; k++ {
		target := p.TotalWork() / float64(k)
		var bounds []int
		var acc float64
		for i := 0; i < n; i++ {
			acc += p.Weights[i]
			if acc >= target && len(bounds) < k-1 && n-i-1 >= k-1-len(bounds) {
				bounds = append(bounds, i+1)
				acc = 0
			}
		}
		bounds = append(bounds, n)
		// Heaviest interval gets the fastest processor.
		work := make([]float64, len(bounds))
		first := 0
		for j, end := range bounds {
			work[j] = p.IntervalWork(first, end-1)
			first = end
		}
		byWork := make([]int, len(bounds))
		for i := range byWork {
			byWork[i] = i
		}
		sort.SliceStable(byWork, func(a, b int) bool { return work[byWork[a]] > work[byWork[b]] })
		bySpeed := make([]int, procs)
		for i := range bySpeed {
			bySpeed[i] = i
		}
		sort.SliceStable(bySpeed, func(a, b int) bool { return pl.Speeds[bySpeed[a]] > pl.Speeds[bySpeed[b]] })
		alloc := make([]int, len(bounds))
		for rank, j := range byWork {
			alloc[j] = bySpeed[rank]
		}
		out = append(out, Mapping{Bounds: bounds, Alloc: alloc})
	}
	return out
}

// ForkHeuristicCandidates returns deterministic seed mappings for
// oversized one-port forks: everything on the fastest processor, the
// root alone with the leaves spread LPT over the other processors, and
// an LPT spread over all processors with the root block competing too.
func ForkHeuristicCandidates(f Fork, pl Platform) []ForkMapping {
	n, procs := f.Leaves(), pl.Processors()
	fastest := 0
	for u := 1; u < procs; u++ {
		if pl.Speeds[u] > pl.Speeds[fastest] {
			fastest = u
		}
	}
	allLeaves := make([]int, n)
	for i := range allLeaves {
		allLeaves[i] = i
	}
	out := []ForkMapping{{RootBlock: 0, Blocks: []ForkBlock{{Proc: fastest, Leaves: allLeaves}}}}
	if procs == 1 || n == 0 {
		return finishOrders(f, pl, out)
	}
	order := append([]int(nil), allLeaves...)
	sort.SliceStable(order, func(a, b int) bool { return f.Weights[order[a]] > f.Weights[order[b]] })
	spread := func(withRoot bool) ForkMapping {
		m := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{{Proc: fastest}}}
		slot := make(map[int]int) // proc -> block index
		slot[fastest] = 0
		load := make([]float64, procs)
		load[fastest] = f.Root / pl.Speeds[fastest]
		for _, l := range order {
			bestU, bestT := -1, math.Inf(1)
			for u := 0; u < procs; u++ {
				if !withRoot && u == fastest {
					continue
				}
				if t := load[u] + f.Weights[l]/pl.Speeds[u]; t < bestT {
					bestU, bestT = u, t
				}
			}
			b, ok := slot[bestU]
			if !ok {
				b = len(m.Blocks)
				m.Blocks = append(m.Blocks, ForkBlock{Proc: bestU})
				slot[bestU] = b
			}
			m.Blocks[b].Leaves = append(m.Blocks[b].Leaves, l)
			load[bestU] = bestT
		}
		for _, b := range m.Blocks {
			sort.Ints(b.Leaves)
		}
		return m
	}
	out = append(out, spread(false), spread(true))
	return finishOrders(f, pl, out)
}

func finishOrders(f Fork, pl Platform, ms []ForkMapping) []ForkMapping {
	for i := range ms {
		ms[i].SendOrder = OptimalSendOrder(f, pl, ms[i])
	}
	return ms
}
