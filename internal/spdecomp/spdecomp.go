// Package spdecomp decomposes series-parallel DAG workflows (workflow.SP)
// for the mapping problem of Benoit & Robert (RR-6308).
//
// The decomposer works in two tiers:
//
//   - Reduce recognises SP graphs that collapse onto one of the three
//     graph shapes the paper solves — a chain is a pipeline (Figure 1), a
//     root whose successors are all sinks is a fork (Figure 2), and adding
//     a common sink makes a fork-join (Section 6.3). Reduced instances
//     inherit the exact Table 1 solvers unchanged, so the decomposition is
//     exact by construction.
//   - Irreducible DAGs are solved in the block model: the steps are
//     partitioned into blocks, each block runs on one distinct processor,
//     the period is the largest block weight over speed, and the latency
//     is the makespan of the canonical list schedule. Exhaustive search
//     (a branch and bound over partitions and processor assignments)
//     covers small instances; Heuristics and the budget-bounded local
//     search of Budgeted cover the rest, with Bounds supplying certified
//     lower bounds for anytime gaps.
//
// The block model sees a processor only through its speed, so the
// exhaustive search gives each block only the lowest-index unused
// processor of each speed: any other choice relabels a mapping it has
// already costed, ties it, and could not replace it.
package spdecomp

import (
	"sort"

	"repliflow/internal/workflow"
)

// Reduction describes an exact collapse of an SP graph onto a legacy
// shape. Order maps canonical stage positions of the reduced graph
// (pipeline stage order; fork root then leaves; fork-join root, leaves,
// join) back to step indices of the SP graph.
type Reduction struct {
	Kind     workflow.Kind
	Pipeline *workflow.Pipeline
	Fork     *workflow.Fork
	ForkJoin *workflow.ForkJoin
	Order    []int
}

// Reduce returns the exact legacy reduction of g, if one exists. The
// graph must be valid. Chains win over the degenerate two-step fork
// reading, matching the paper's pipeline-first presentation.
func Reduce(g workflow.SP) (Reduction, bool) {
	preds, succs := g.Preds(), g.Succs()
	if order, ok := chainOrder(preds, succs); ok {
		ws := make([]float64, len(order))
		for i, s := range order {
			ws[i] = g.Steps[s].Weight
		}
		p := workflow.NewPipeline(ws...)
		return Reduction{Kind: workflow.KindPipeline, Pipeline: &p, Order: order}, true
	}
	if root, leaves, ok := forkShape(preds, succs); ok {
		ws := make([]float64, len(leaves))
		for i, s := range leaves {
			ws[i] = g.Steps[s].Weight
		}
		f := workflow.NewFork(g.Steps[root].Weight, ws...)
		return Reduction{Kind: workflow.KindFork, Fork: &f, Order: append([]int{root}, leaves...)}, true
	}
	if root, leaves, join, ok := forkJoinShape(preds, succs); ok {
		ws := make([]float64, len(leaves))
		for i, s := range leaves {
			ws[i] = g.Steps[s].Weight
		}
		fj := workflow.NewForkJoin(g.Steps[root].Weight, g.Steps[join].Weight, ws...)
		order := append([]int{root}, leaves...)
		order = append(order, join)
		return Reduction{Kind: workflow.KindForkJoin, ForkJoin: &fj, Order: order}, true
	}
	return Reduction{}, false
}

// chainOrder reports whether the DAG is a single path and returns it.
func chainOrder(preds, succs [][]int) ([]int, bool) {
	n := len(preds)
	start := -1
	for i := 0; i < n; i++ {
		if len(preds[i]) > 1 || len(succs[i]) > 1 {
			return nil, false
		}
		if len(preds[i]) == 0 {
			if start >= 0 {
				return nil, false
			}
			start = i
		}
	}
	order := make([]int, 0, n)
	for v := start; ; {
		order = append(order, v)
		if len(succs[v]) == 0 {
			break
		}
		v = succs[v][0]
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// forkShape matches a root whose successors are all the remaining steps,
// each a sink depending only on the root.
func forkShape(preds, succs [][]int) (root int, leaves []int, ok bool) {
	n := len(preds)
	if n < 2 {
		return 0, nil, false
	}
	root = -1
	for i := 0; i < n; i++ {
		if len(preds[i]) == 0 {
			if root >= 0 {
				return 0, nil, false
			}
			root = i
		}
	}
	if root < 0 || len(succs[root]) != n-1 {
		return 0, nil, false
	}
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		if len(preds[i]) != 1 || preds[i][0] != root || len(succs[i]) != 0 {
			return 0, nil, false
		}
		leaves = append(leaves, i)
	}
	sort.Ints(leaves)
	return root, leaves, true
}

// forkJoinShape matches root -> leaves -> join with no direct root-join
// edge and at least one leaf.
func forkJoinShape(preds, succs [][]int) (root int, leaves []int, join int, ok bool) {
	n := len(preds)
	if n < 3 {
		return 0, nil, 0, false
	}
	root, join = -1, -1
	for i := 0; i < n; i++ {
		if len(preds[i]) == 0 {
			if root >= 0 {
				return 0, nil, 0, false
			}
			root = i
		}
		if len(succs[i]) == 0 {
			if join >= 0 {
				return 0, nil, 0, false
			}
			join = i
		}
	}
	if root < 0 || join < 0 || root == join {
		return 0, nil, 0, false
	}
	if len(succs[root]) != n-2 || len(preds[join]) != n-2 {
		return 0, nil, 0, false
	}
	for i := 0; i < n; i++ {
		if i == root || i == join {
			continue
		}
		if len(preds[i]) != 1 || preds[i][0] != root || len(succs[i]) != 1 || succs[i][0] != join {
			return 0, nil, 0, false
		}
		leaves = append(leaves, i)
	}
	sort.Ints(leaves)
	return root, leaves, join, true
}

// nodeKind labels the nodes of the SP decomposition tree.
type nodeKind int

const (
	leafNode nodeKind = iota
	seriesNode
	parallelNode
	// atomNode is an irreducible sub-DAG: connected, with no cut step.
	atomNode
)

// node is a node of the SP decomposition tree built by buildTree. Steps
// holds the step indices covered by the subtree.
type node struct {
	kind     nodeKind
	steps    []int
	children []*node
}

// buildTree recursively decomposes the DAG into series compositions (at
// cut steps every path passes through), parallel compositions (weakly
// connected components) and irreducible atoms. The tree guides the
// recursive allocation heuristic; exactness never depends on it.
func buildTree(g workflow.SP) *node {
	preds, succs := g.Preds(), g.Succs()
	all := make([]int, len(g.Steps))
	for i := range all {
		all[i] = i
	}
	return decompose(all, preds, succs)
}

func decompose(set []int, preds, succs [][]int) *node {
	if len(set) == 1 {
		return &node{kind: leafNode, steps: set}
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	// Parallel split: weakly connected components of the induced subgraph.
	comps := components(set, in, preds, succs)
	if len(comps) > 1 {
		n := &node{kind: parallelNode, steps: set}
		for _, c := range comps {
			n.children = append(n.children, decompose(c, preds, succs))
		}
		return n
	}
	// Series split: cut steps comparable (ancestor or descendant) to every
	// other step partition the set into sequential segments.
	desc := reachability(set, in, succs)
	anc := reachability(set, in, preds)
	var cuts []int
	for _, v := range set {
		comparable := true
		for _, u := range set {
			if u == v {
				continue
			}
			if !desc[v][u] && !anc[v][u] {
				comparable = false
				break
			}
		}
		if comparable {
			cuts = append(cuts, v)
		}
	}
	if len(cuts) > 0 {
		// Order cuts by ancestry: c before d iff d is a descendant of c.
		sort.Slice(cuts, func(i, j int) bool { return desc[cuts[i]][cuts[j]] })
		n := &node{kind: seriesNode, steps: set}
		assigned := make(map[int]bool, len(set))
		for _, c := range cuts {
			assigned[c] = true
		}
		// Segment before the first cut, between consecutive cuts, after
		// the last: classified by ancestry relative to the cuts.
		segs := make([][]int, len(cuts)+1)
		for _, v := range set {
			if assigned[v] {
				continue
			}
			slot := len(cuts)
			for i, c := range cuts {
				if desc[v][c] { // v is an ancestor of cut c
					slot = i
					break
				}
			}
			segs[slot] = append(segs[slot], v)
		}
		for i := 0; i <= len(cuts); i++ {
			if len(segs[i]) > 0 {
				n.children = append(n.children, decompose(segs[i], preds, succs))
			}
			if i < len(cuts) {
				n.children = append(n.children, &node{kind: leafNode, steps: []int{cuts[i]}})
			}
		}
		if len(n.children) > 1 {
			return n
		}
	}
	return &node{kind: atomNode, steps: set}
}

// components returns the weakly connected components of the induced
// subgraph, each sorted, ordered by smallest member.
func components(set []int, in map[int]bool, preds, succs [][]int) [][]int {
	seen := make(map[int]bool, len(set))
	var comps [][]int
	sorted := append([]int(nil), set...)
	sort.Ints(sorted)
	for _, s := range sorted {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, lists := range [][][]int{preds, succs} {
				for _, u := range lists[v] {
					if in[u] && !seen[u] {
						seen[u] = true
						stack = append(stack, u)
					}
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// reachability returns, for each step of the set, the steps reachable by
// following the given adjacency inside the set (excluding the step
// itself).
func reachability(set []int, in map[int]bool, adj [][]int) map[int]map[int]bool {
	out := make(map[int]map[int]bool, len(set))
	for _, s := range set {
		reach := make(map[int]bool)
		stack := append([]int(nil), adj[s]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !in[v] || reach[v] {
				continue
			}
			reach[v] = true
			stack = append(stack, adj[v]...)
		}
		out[s] = reach
	}
	return out
}
