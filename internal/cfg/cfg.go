// Package cfg is the one control-flow view of a program that the static
// passes share: internal/lint checks stream lifecycles and internal/absint
// bounds values and loop trips over the same successor lists, the same
// depth-first search, the same natural-loop forest and the same scan of
// stream-configuration runs. It is its own package so that internal/program
// stays free of analyses.
package cfg

import "repro/internal/isa"

// Graph is the control-flow graph of an instruction sequence. Its nodes are
// pcs and its entry is pc 0.
type Graph struct {
	// Succs lists each pc's successors. A conditional branch lists its taken
	// target first, then its fallthrough: the passes index per-edge
	// out-states by this order. A halt has none. A target outside [0, len)
	// — a fallthrough past the last instruction or a corrupt branch target —
	// gets no edge.
	Succs [][]int
	// Preds lists each pc's predecessors in ascending order, unreachable
	// ones included, once per edge.
	Preds [][]int
	// Reach marks the pcs reachable from pc 0.
	Reach []bool
}

// New builds the graph of insts.
func New(insts []isa.Inst) *Graph {
	n := len(insts)
	g := &Graph{Succs: make([][]int, n), Preds: make([][]int, n), Reach: make([]bool, n)}
	edges := make([]int, 0, 2*n) // one backing array; a pc has at most two
	for pc := range insts {
		in := &insts[pc]
		out := [2]int{pc + 1, -1}
		switch {
		case in.Op == isa.OpHalt:
			out[0] = -1
		case in.Op == isa.OpJ:
			out[0] = in.Target
		case in.Op.IsBranch():
			out = [2]int{in.Target, pc + 1}
		}
		start := len(edges)
		for _, s := range out {
			if s >= 0 && s < n {
				edges = append(edges, s)
				g.Preds[s] = append(g.Preds[s], pc)
			}
		}
		g.Succs[pc] = edges[start:len(edges):len(edges)]
	}
	if n > 0 {
		g.Reach[0] = true
		g.Reaches(0, nil, func(pc int) bool { g.Reach[pc] = true; return false })
	}
	return g
}

// Reaches is the one depth-first reachability query: it reports whether a
// path of one or more edges from start, taking only edges along accepts,
// arrives at a pc target accepts. start itself counts only when such a
// path returns to it. A nil along accepts every edge.
func (g *Graph) Reaches(start int, along func(from, to int) bool, target func(pc int) bool) bool {
	seen := make([]bool, len(g.Succs))
	var stack []int
	follow := func(pc int) {
		for _, s := range g.Succs[pc] {
			if !seen[s] && (along == nil || along(pc, s)) {
				stack = append(stack, s)
			}
		}
	}
	follow(start)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		if target(pc) {
			return true
		}
		follow(pc)
	}
	return false
}

// DFS runs one iterative depth-first search from pc 0, taking successors in
// Succs order. It returns the reachable pcs in postorder and the retreating
// edges — edges into a pc still on the search stack — in the order the
// search meets them.
func (g *Graph) DFS() (post []int, retreat [][2]int) {
	if len(g.Succs) == 0 {
		return nil, nil
	}
	color := make([]byte, len(g.Succs)) // unvisited, onStack, finished
	const unvisited, onStack, finished = 0, 1, 2
	type frame struct{ pc, next int }
	frames := []frame{{0, 0}}
	color[0] = onStack
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next < len(g.Succs[f.pc]) {
			s := g.Succs[f.pc][f.next]
			f.next++
			switch color[s] {
			case unvisited:
				color[s] = onStack
				frames = append(frames, frame{s, 0})
			case onStack:
				retreat = append(retreat, [2]int{f.pc, s})
			}
			continue
		}
		color[f.pc] = finished
		post = append(post, f.pc)
		frames = frames[:len(frames)-1]
	}
	return post, retreat
}
