package cfg

import (
	"slices"
	"sort"
)

// Loop is one natural loop. Back edges that share a header form one loop.
type Loop struct {
	Header int
	// Latches are the sources of the loop's back edges, in the order the
	// depth-first search meets them.
	Latches []int
	// Body holds the loop's pcs in ascending order: the header and every
	// pc that reaches a latch without passing the header.
	Body []int
	// Parent indexes the innermost enclosing loop, -1 for an outermost one.
	Parent int
	// WellNested: every entry edge into the header comes from the parent
	// loop's body (or from outside any loop for an outermost loop), and the
	// body has no side entrances.
	WellNested bool
	// EntryPreds counts the header's distinct predecessors outside the body
	// (at least 1): each can enter the loop once per parent iteration.
	EntryPreds uint64
}

// Contains reports whether pc lies in the loop's body.
func (l *Loop) Contains(pc int) bool {
	_, ok := slices.BinarySearch(l.Body, pc)
	return ok
}

// Forest is the natural-loop structure of a Graph.
type Forest struct {
	// Loops are ordered by body size, then by discovery, so an inner loop
	// precedes every loop that encloses it. Empty when !Reducible.
	Loops []Loop
	// LoopOf is the innermost loop of each pc, -1 outside every loop.
	LoopOf []int
	// WidenAt marks the targets of retreating edges: every cycle passes
	// one, so a fixpoint that widens there terminates.
	WidenAt []bool
	// Reducible: the target of every retreating edge dominates its source.
	// Irreducible graphs get no loops and no back edges.
	Reducible bool
}

// IsBack reports whether from→to is a back edge: a latch's edge to its
// loop's header. A header's innermost loop is the one it heads.
func (f *Forest) IsBack(from, to int) bool {
	i := f.LoopOf[to]
	return i >= 0 && f.Loops[i].Header == to && slices.Contains(f.Loops[i].Latches, from)
}

// Loops finds the natural loops: the retreating edges of DFS, immediate
// dominators by the Cooper–Harvey–Kennedy iteration over its reverse
// postorder, then each back edge's body by a backward walk from its latch.
func (g *Graph) Loops() *Forest {
	n := len(g.Succs)
	f := &Forest{LoopOf: make([]int, n), WidenAt: make([]bool, n), Reducible: true}
	for pc := range f.LoopOf {
		f.LoopOf[pc] = -1
	}
	post, retreat := g.DFS()
	idom := g.dominators(post)
	headed := map[int]int{} // header → index into f.Loops
	for _, e := range retreat {
		latch, h := e[0], e[1]
		f.WidenAt[h] = true
		if !dominates(idom, h, latch) {
			f.Reducible = false
			continue
		}
		i, ok := headed[h]
		if !ok {
			i = len(f.Loops)
			headed[h] = i
			f.Loops = append(f.Loops, Loop{Header: h, Parent: -1})
		}
		f.Loops[i].Latches = append(f.Loops[i].Latches, latch)
	}
	if !f.Reducible {
		f.Loops = nil
		return f
	}

	in := make([]bool, n) // scratch body membership, cleared per loop
	for i := range f.Loops {
		l := &f.Loops[i]
		in[l.Header] = true
		l.Body = append(l.Body, l.Header)
		work := append([]int(nil), l.Latches...)
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if in[v] {
				continue
			}
			in[v] = true
			l.Body = append(l.Body, v)
			for _, p := range g.Preds[v] {
				if g.Reach[p] && !in[p] {
					work = append(work, p)
				}
			}
		}
		for _, v := range l.Body {
			in[v] = false
		}
		slices.Sort(l.Body)
	}
	sort.SliceStable(f.Loops, func(i, j int) bool { return len(f.Loops[i].Body) < len(f.Loops[j].Body) })
	for i := range f.Loops {
		for _, v := range f.Loops[i].Body {
			if f.LoopOf[v] < 0 {
				f.LoopOf[v] = i
			}
		}
	}
	for i := range f.Loops {
		l := &f.Loops[i]
		for j := i + 1; j < len(f.Loops); j++ {
			if f.Loops[j].Contains(l.Header) {
				l.Parent = j
				break
			}
		}
	}
	for i := range f.Loops {
		l := &f.Loops[i]
		l.WellNested = true
		for k, p := range g.Preds[l.Header] {
			if !g.Reach[p] || l.Contains(p) {
				continue
			}
			if k == 0 || g.Preds[l.Header][k-1] != p { // Preds is sorted
				l.EntryPreds++
			}
			if f.LoopOf[p] != l.Parent {
				l.WellNested = false
			}
		}
		l.EntryPreds = max(l.EntryPreds, 1)
		for _, v := range l.Body {
			if v == l.Header {
				continue
			}
			for _, p := range g.Preds[v] {
				if g.Reach[p] && !l.Contains(p) {
					l.WellNested = false
				}
			}
		}
	}
	return f
}

// dominators computes immediate dominators by the Cooper–Harvey–Kennedy
// iteration over the reverse of the DFS postorder post. idom[0] is 0;
// unreachable pcs get -1.
func (g *Graph) dominators(post []int) []int {
	n := len(g.Succs)
	idom := make([]int, n)
	order := make([]int, n) // postorder number
	for pc := range idom {
		idom[pc] = -1
	}
	for i, pc := range post {
		order[pc] = i
	}
	if n == 0 {
		return idom
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] < order[b] {
				a = idom[a]
			}
			for order[b] < order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- { // post ends with the entry
			v := post[i]
			d := -1
			for _, p := range g.Preds[v] {
				switch {
				case idom[p] < 0: // unreachable, or not yet processed
				case d < 0:
					d = p
				default:
					d = intersect(p, d)
				}
			}
			if idom[v] != d {
				idom[v] = d
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether d dominates the reachable pc v.
func dominates(idom []int, d, v int) bool {
	for v != d {
		if v == 0 {
			return false
		}
		v = idom[v]
	}
	return true
}
