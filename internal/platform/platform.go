// Package platform models the target execution platforms of Benoit &
// Robert (RR-6308): p processors with speeds s_1..s_p, either Homogeneous
// (all speeds equal) or Heterogeneous. The simplified model carries no
// communication parameters.
package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repliflow/internal/numeric"
)

// Platform is a set of processors identified by index 0..p-1 with positive
// speeds. Processor P_u executes X floating point operations in X/Speeds[u]
// time units.
type Platform struct {
	Speeds []float64
}

// New returns a platform with the given processor speeds.
func New(speeds ...float64) Platform {
	return Platform{Speeds: append([]float64(nil), speeds...)}
}

// Homogeneous returns a platform of p identical processors of speed s.
func Homogeneous(p int, s float64) Platform {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = s
	}
	return Platform{Speeds: speeds}
}

// Processors returns the number p of processors.
func (pl Platform) Processors() int { return len(pl.Speeds) }

// TotalSpeed returns the aggregate speed sum(s_u).
func (pl Platform) TotalSpeed() float64 { return numeric.SumFloat(pl.Speeds) }

// IsHomogeneous reports whether all processors share the same speed.
func (pl Platform) IsHomogeneous() bool {
	for _, s := range pl.Speeds[1:] {
		if !numeric.Eq(s, pl.Speeds[0]) {
			return false
		}
	}
	return true
}

// Validate checks the platform is well formed: at least one processor with
// strictly positive speed.
func (pl Platform) Validate() error {
	if len(pl.Speeds) == 0 {
		return errors.New("platform: no processor")
	}
	for i, s := range pl.Speeds {
		if s <= 0 {
			return fmt.Errorf("platform: processor P%d has non-positive speed %v", i+1, s)
		}
	}
	return nil
}

// MaxSpeed returns the largest processor speed.
func (pl Platform) MaxSpeed() float64 { return numeric.MaxFloat(pl.Speeds) }

// Fastest returns the index of a fastest processor.
func (pl Platform) Fastest() int {
	best := 0
	for i, s := range pl.Speeds {
		if s > pl.Speeds[best] {
			best = i
		}
	}
	return best
}

// SubsetMinSpeed returns the minimum speed over the given processor indices.
// It panics on an empty subset.
func (pl Platform) SubsetMinSpeed(procs []int) float64 {
	m := pl.Speeds[procs[0]]
	for _, q := range procs[1:] {
		if pl.Speeds[q] < m {
			m = pl.Speeds[q]
		}
	}
	return m
}

// SubsetSpeedSum returns the aggregate speed over the given processor
// indices.
func (pl Platform) SubsetSpeedSum(procs []int) float64 {
	var s float64
	for _, q := range procs {
		s += pl.Speeds[q]
	}
	return s
}

// SortedBySpeed returns processor indices ordered by non-decreasing speed.
// Ties are broken by index so the order is deterministic. The ordering is
// the one required by Lemma 3 and Lemma 4 of the paper (optimal solutions
// replicate stage intervals onto intervals of consecutive-speed processors).
func (pl Platform) SortedBySpeed() []int {
	idx := make([]int, len(pl.Speeds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if pl.Speeds[idx[a]] != pl.Speeds[idx[b]] {
			return pl.Speeds[idx[a]] < pl.Speeds[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// DistinctSpeeds returns the platform's speeds in increasing order, each
// exactly once. A candidate value built from a speed is the same for every
// processor of that speed, so candidate sets are built over these.
func (pl Platform) DistinctSpeeds() []float64 {
	s := slices.Clone(pl.Speeds)
	slices.Sort(s)
	return slices.Compact(s)
}

// Random returns a platform of p processors with integer speeds drawn
// uniformly from [1, maxS].
func Random(rng *rand.Rand, p, maxS int) Platform {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = float64(1 + rng.Intn(maxS))
	}
	return Platform{Speeds: speeds}
}

// RandomClasses returns a platform of p processors whose speeds take at
// most `classes` distinct values, drawn without repetition from pool;
// each processor's speed is drawn uniformly from those values. It makes
// the repeated-speed platforms on which equal-speed processors are
// interchangeable.
func RandomClasses(rng *rand.Rand, p, classes int, pool []float64) Platform {
	perm := rng.Perm(len(pool))[:min(classes, len(pool))]
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = pool[perm[rng.Intn(len(perm))]]
	}
	return Platform{Speeds: speeds}
}
