package anytime

import (
	"math/rand"
	"sort"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
)

// The mutators below implement the annealing neighbourhoods: each call
// clones the mapping and applies one random structural move (boundary
// shifts, merges, splits, leaf moves, processor moves, mode toggles).
// Moves keep the easy invariants (partition structure, disjoint
// processor sets) and leave the full legality check to the Eval
// functions — a candidate that trips a subtle rule (e.g. data-parallel
// legality) is simply rejected by the caller.

// freeProcs returns the processors not used by any of the groups.
func freeProcs(pl platform.Platform, used [][]int) []int {
	taken := make([]bool, pl.Processors())
	for _, procs := range used {
		for _, q := range procs {
			taken[q] = true
		}
	}
	var free []int
	for q, t := range taken {
		if !t {
			free = append(free, q)
		}
	}
	return free
}

// takeRandom removes and returns a random element of *s.
func takeRandom(rng *rand.Rand, s *[]int) int {
	i := rng.Intn(len(*s))
	v := (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	return v
}

func insertSorted(s []int, v int) []int {
	s = append(s, v)
	sort.Ints(s)
	return s
}

// sortedUnion appends b to a and re-sorts (the sets are disjoint).
func sortedUnion(a, b []int) []int {
	a = append(a, b...)
	sort.Ints(a)
	return a
}

// splitProcs partitions procs (already a private copy) into two
// non-empty halves at a random shuffled cut. len(procs) must be >= 2.
func splitProcs(rng *rand.Rand, procs []int) (a, b []int) {
	rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
	k := 1 + rng.Intn(len(procs)-1)
	a = append([]int(nil), procs[:k]...)
	b = append([]int(nil), procs[k:]...)
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

// --- Pipeline ---------------------------------------------------------------

// pipelineMutator returns the pipeline neighbourhood function.
func pipelineMutator(pl platform.Platform, allowDP bool) func(*rand.Rand, mapping.PipelineMapping) mapping.PipelineMapping {
	return func(rng *rand.Rand, m0 mapping.PipelineMapping) mapping.PipelineMapping {
		m := m0.Clone()
		for attempt := 0; attempt < 4; attempt++ {
			if pipelineMove(rng, &m, pl, allowDP) {
				break
			}
		}
		return m
	}
}

func pipelineMove(rng *rand.Rand, m *mapping.PipelineMapping, pl platform.Platform, allowDP bool) bool {
	iv := m.Intervals
	used := make([][]int, len(iv))
	for i := range iv {
		used[i] = iv[i].Procs
	}
	free := freeProcs(pl, used)
	// A multi-stage interval can never be data-parallel; moves that grow
	// an interval reset its mode.
	demote := func(i int) {
		if iv[i].Last > iv[i].First {
			iv[i].Mode = mapping.Replicated
		}
	}
	switch rng.Intn(8) {
	case 0: // shift a boundary between adjacent intervals
		if len(iv) < 2 {
			return false
		}
		i := rng.Intn(len(iv) - 1)
		if rng.Intn(2) == 0 && iv[i].Last > iv[i].First {
			iv[i].Last--
			iv[i+1].First--
		} else if iv[i+1].Last > iv[i+1].First {
			iv[i+1].First++
			iv[i].Last++
		} else {
			return false
		}
		demote(i)
		demote(i + 1)
	case 1: // merge adjacent intervals
		if len(iv) < 2 {
			return false
		}
		i := rng.Intn(len(iv) - 1)
		iv[i].Last = iv[i+1].Last
		iv[i].Procs = sortedUnion(iv[i].Procs, iv[i+1].Procs)
		iv[i].Mode = mapping.Replicated
		m.Intervals = append(iv[:i+1], iv[i+2:]...)
	case 2: // split an interval
		i := rng.Intn(len(iv))
		if iv[i].Last == iv[i].First {
			return false
		}
		cut := iv[i].First + 1 + rng.Intn(iv[i].Last-iv[i].First)
		left := iv[i]
		right := mapping.PipelineInterval{First: cut, Last: iv[i].Last}
		left.Last = cut - 1
		left.Mode, right.Mode = mapping.Replicated, mapping.Replicated
		if len(left.Procs) >= 2 {
			left.Procs, right.Procs = splitProcs(rng, left.Procs)
		} else if len(free) > 0 {
			right.Procs = []int{takeRandom(rng, &free)}
		} else {
			return false
		}
		out := append(append(append([]mapping.PipelineInterval(nil), iv[:i]...), left, right), iv[i+1:]...)
		m.Intervals = out
	case 3: // grow an interval with a free processor
		if len(free) == 0 {
			return false
		}
		i := rng.Intn(len(iv))
		iv[i].Procs = insertSorted(iv[i].Procs, takeRandom(rng, &free))
	case 4: // shrink an interval, freeing a processor
		i := rng.Intn(len(iv))
		if len(iv[i].Procs) < 2 {
			return false
		}
		takeRandom(rng, &iv[i].Procs)
	case 5: // move a processor between intervals
		if len(iv) < 2 {
			return false
		}
		a, b := rng.Intn(len(iv)), rng.Intn(len(iv))
		if a == b || len(iv[a].Procs) < 2 {
			return false
		}
		iv[b].Procs = insertSorted(iv[b].Procs, takeRandom(rng, &iv[a].Procs))
	case 6: // swap processors between intervals
		if len(iv) < 2 {
			return false
		}
		a, b := rng.Intn(len(iv)), rng.Intn(len(iv))
		if a == b {
			return false
		}
		qa, qb := takeRandom(rng, &iv[a].Procs), takeRandom(rng, &iv[b].Procs)
		iv[a].Procs = insertSorted(iv[a].Procs, qb)
		iv[b].Procs = insertSorted(iv[b].Procs, qa)
	default: // toggle the mode of a single-stage interval
		if !allowDP {
			return false
		}
		i := rng.Intn(len(iv))
		if iv[i].First != iv[i].Last {
			return false
		}
		if iv[i].Mode == mapping.Replicated {
			iv[i].Mode = mapping.DataParallel
		} else {
			iv[i].Mode = mapping.Replicated
		}
	}
	return true
}

// --- Fork and fork-join ---------------------------------------------------

// forkJoinMutator returns the fork-join neighbourhood function. A fork
// is a fork-join without a join (join false, Section 6.3): its mappings
// set no Join flag and no move places one.
func forkJoinMutator(pl platform.Platform, join, allowDP bool) func(*rand.Rand, mapping.ForkJoinMapping) mapping.ForkJoinMapping {
	return func(rng *rand.Rand, m0 mapping.ForkJoinMapping) mapping.ForkJoinMapping {
		m := m0.Clone()
		for attempt := 0; attempt < 4; attempt++ {
			if forkJoinMove(rng, &m, pl, join, allowDP) {
				break
			}
		}
		return m
	}
}

func forkJoinBlockEmpty(b mapping.ForkJoinBlock) bool {
	return !b.Root && !b.Join && len(b.Leaves) == 0
}

// forkJoinDPLegal mirrors ValidateForkJoin's data-parallel rule: a DP
// block is leaf-only, or the root alone, or the join alone.
func forkJoinDPLegal(b mapping.ForkJoinBlock) bool {
	if b.Root {
		return len(b.Leaves) == 0 && !b.Join
	}
	if b.Join {
		return len(b.Leaves) == 0
	}
	return true
}

// forkJoinMove applies one random move to m. Without a join it draws
// among the eight other moves, in the same order, so a fork's moves and
// RNG draws do not depend on the join's move.
func forkJoinMove(rng *rand.Rand, m *mapping.ForkJoinMapping, pl platform.Platform, join, allowDP bool) bool {
	bs := m.Blocks
	used := make([][]int, len(bs))
	for i := range bs {
		used[i] = bs[i].Procs
	}
	free := freeProcs(pl, used)
	demote := func(i int) {
		if !forkJoinDPLegal(bs[i]) {
			bs[i].Mode = mapping.Replicated
		}
	}
	removeIfEmpty := func(i int) {
		if forkJoinBlockEmpty(bs[i]) {
			m.Blocks = append(bs[:i], bs[i+1:]...)
		}
	}
	var move int
	if join {
		move = rng.Intn(9)
	} else if move = rng.Intn(8); move >= 1 {
		move++ // skip relocating the join
	}
	switch move {
	case 0: // move a leaf to another (or a new) block
		var src []int
		for i := range bs {
			if len(bs[i].Leaves) > 0 {
				src = append(src, i)
			}
		}
		if len(src) == 0 {
			return false
		}
		i := src[rng.Intn(len(src))]
		leaf := takeRandom(rng, &bs[i].Leaves)
		if j := rng.Intn(len(bs) + 1); j < len(bs) && j != i {
			bs[j].Leaves = insertSorted(bs[j].Leaves, leaf)
			demote(j)
		} else if len(free) > 0 {
			m.Blocks = append(bs, mapping.NewForkJoinBlock(false, false, []int{leaf}, mapping.Replicated, takeRandom(rng, &free)))
			bs = m.Blocks
		} else {
			bs[i].Leaves = insertSorted(bs[i].Leaves, leaf)
			return false
		}
		removeIfEmpty(i)
	case 1: // relocate the join stage
		ji := -1
		for i := range bs {
			if bs[i].Join {
				ji = i
			}
		}
		bs[ji].Join = false
		if j := rng.Intn(len(bs) + 1); j < len(bs) && j != ji {
			bs[j].Join = true
			demote(j)
		} else if len(free) > 0 {
			m.Blocks = append(bs, mapping.NewForkJoinBlock(false, true, nil, mapping.Replicated, takeRandom(rng, &free)))
			bs = m.Blocks
		} else {
			bs[ji].Join = true
			return false
		}
		removeIfEmpty(ji)
	case 2: // merge two blocks
		if len(bs) < 2 {
			return false
		}
		a, b := rng.Intn(len(bs)), rng.Intn(len(bs))
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		bs[a].Root = bs[a].Root || bs[b].Root
		bs[a].Join = bs[a].Join || bs[b].Join
		bs[a].Leaves = sortedUnion(bs[a].Leaves, bs[b].Leaves)
		bs[a].Procs = sortedUnion(bs[a].Procs, bs[b].Procs)
		bs[a].Mode = mapping.Replicated
		m.Blocks = append(bs[:b], bs[b+1:]...)
	case 3: // split a block's leaves off into a new block
		i := rng.Intn(len(bs))
		if len(bs[i].Leaves) < 2 && !((bs[i].Root || bs[i].Join) && len(bs[i].Leaves) == 1) {
			return false
		}
		k := 1
		if len(bs[i].Leaves) > 1 {
			k = 1 + rng.Intn(len(bs[i].Leaves)-1)
		}
		var moved []int
		for n := 0; n < k; n++ {
			moved = insertSorted(moved, takeRandom(rng, &bs[i].Leaves))
		}
		nb := mapping.ForkJoinBlock{Leaves: moved, Assignment: mapping.Assignment{Mode: mapping.Replicated}}
		if len(bs[i].Procs) >= 2 {
			nb.Procs = []int{takeRandom(rng, &bs[i].Procs)}
		} else if len(free) > 0 {
			nb.Procs = []int{takeRandom(rng, &free)}
		} else {
			return false
		}
		m.Blocks = append(bs, nb)
	case 4: // grow a block with a free processor
		if len(free) == 0 {
			return false
		}
		i := rng.Intn(len(bs))
		bs[i].Procs = insertSorted(bs[i].Procs, takeRandom(rng, &free))
	case 5: // shrink a block, freeing a processor
		i := rng.Intn(len(bs))
		if len(bs[i].Procs) < 2 {
			return false
		}
		takeRandom(rng, &bs[i].Procs)
	case 6: // move a processor between blocks
		if len(bs) < 2 {
			return false
		}
		a, b := rng.Intn(len(bs)), rng.Intn(len(bs))
		if a == b || len(bs[a].Procs) < 2 {
			return false
		}
		bs[b].Procs = insertSorted(bs[b].Procs, takeRandom(rng, &bs[a].Procs))
	case 7: // swap processors between blocks
		if len(bs) < 2 {
			return false
		}
		a, b := rng.Intn(len(bs)), rng.Intn(len(bs))
		if a == b {
			return false
		}
		qa, qb := takeRandom(rng, &bs[a].Procs), takeRandom(rng, &bs[b].Procs)
		bs[a].Procs = insertSorted(bs[a].Procs, qb)
		bs[b].Procs = insertSorted(bs[b].Procs, qa)
	default: // toggle a block's mode
		if !allowDP {
			return false
		}
		i := rng.Intn(len(bs))
		if !forkJoinDPLegal(bs[i]) {
			return false
		}
		if bs[i].Mode == mapping.Replicated {
			bs[i].Mode = mapping.DataParallel
		} else {
			bs[i].Mode = mapping.Replicated
		}
	}
	return true
}
