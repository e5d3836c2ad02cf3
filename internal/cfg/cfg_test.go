package cfg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
)

// randProgram draws a program of j, blt, halt and nop whose branch targets
// lie in [0, len]: len is the fallthrough past the end, which gets no edge.
func randProgram(rng *rand.Rand) []isa.Inst {
	n := 1 + rng.Intn(12)
	insts := make([]isa.Inst, n)
	for pc := range insts {
		switch rng.Intn(4) {
		case 0:
			insts[pc] = isa.J("t")
		case 1:
			insts[pc] = isa.Blt(isa.X(1), isa.X(2), "t")
		case 2:
			insts[pc] = isa.Halt()
		default:
			insts[pc] = isa.Nop()
		}
		if insts[pc].Op.IsBranch() {
			insts[pc].Target = rng.Intn(n + 1)
		}
	}
	return insts
}

// reachAvoiding marks the pcs reachable from start, start included, by
// paths that never enter avoid. Nothing is reachable when start == avoid.
func reachAvoiding(g *Graph, start, avoid int) []bool {
	seen := make([]bool, len(g.Succs))
	if start == avoid {
		return seen
	}
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[v] {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// bruteDom is the textbook dominance: d dominates reachable v when v is
// unreachable from pc 0 once d is removed.
func bruteDom(g *Graph, d, v int) bool {
	return d == v || !reachAvoiding(g, 0, d)[v]
}

func TestGraphEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		insts := randProgram(rng)
		n := len(insts)
		g := New(insts)
		for pc, in := range insts {
			var want []int
			switch in.Op {
			case isa.OpJ:
				want = []int{in.Target}
			case isa.OpBlt:
				want = []int{in.Target, pc + 1} // taken target first
			case isa.OpNop:
				want = []int{pc + 1}
			}
			want = slices.DeleteFunc(want, func(s int) bool { return s >= n })
			if !slices.Equal(g.Succs[pc], want) {
				t.Fatalf("%v: succs(%d) = %v, want %v", insts, pc, g.Succs[pc], want)
			}
			var preds []int
			for p := range insts {
				for _, s := range g.Succs[p] {
					if s == pc {
						preds = append(preds, p)
					}
				}
			}
			if !slices.Equal(g.Preds[pc], preds) {
				t.Fatalf("%v: preds(%d) = %v, want %v", insts, pc, g.Preds[pc], preds)
			}
		}
		if reach := reachAvoiding(g, 0, -1); !slices.Equal(g.Reach, reach) {
			t.Fatalf("%v: reach = %v, want %v", insts, g.Reach, reach)
		}
		for start := 0; start < n; start++ {
			for target := 0; target < n; target++ {
				want := false
				for _, s := range g.Succs[start] {
					want = want || reachAvoiding(g, s, -1)[target]
				}
				got := g.Reaches(start, nil, func(pc int) bool { return pc == target })
				if got != want {
					t.Fatalf("%v: Reaches(%d, %d) = %v, want %v", insts, start, target, got, want)
				}
			}
		}
	}
}

func TestDominatorsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20000; trial++ {
		insts := randProgram(rng)
		g := New(insts)
		post, _ := g.DFS()
		idom := g.dominators(post)
		for v := range insts {
			if !g.Reach[v] {
				continue
			}
			for d := range insts {
				if !g.Reach[d] {
					continue
				}
				if got, want := dominates(idom, d, v), bruteDom(g, d, v); got != want {
					t.Fatalf("%v: dominates(%d, %d) = %v, want %v", insts, d, v, got, want)
				}
			}
		}
	}
}

// acyclicWithout reports whether the reachable graph has no cycle once the
// edges cut accepts are removed.
func acyclicWithout(g *Graph, cut func(from, to int) bool) bool {
	const (
		unvisited = iota
		onStack
		finished
	)
	color := make([]byte, len(g.Succs))
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = onStack
		for _, s := range g.Succs[v] {
			if cut(v, s) {
				continue
			}
			if color[s] == onStack || color[s] == unvisited && !visit(s) {
				return false
			}
		}
		color[v] = finished
		return true
	}
	return visit(0)
}

func TestLoopsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reducible := 0
	for trial := 0; trial < 20000; trial++ {
		insts := randProgram(rng)
		g := New(insts)
		f := g.Loops()
		domEdge := func(from, to int) bool { return bruteDom(g, to, from) }
		if want := acyclicWithout(g, domEdge); f.Reducible != want {
			t.Fatalf("%v: Reducible = %v, want %v", insts, f.Reducible, want)
		}
		if !f.Reducible {
			if len(f.Loops) != 0 {
				t.Fatalf("%v: irreducible graph has loops %v", insts, f.Loops)
			}
			continue
		}
		reducible++
		for from := range insts {
			if !g.Reach[from] {
				continue
			}
			for _, to := range g.Succs[from] {
				if got, want := f.IsBack(from, to), domEdge(from, to); got != want {
					t.Fatalf("%v: IsBack(%d, %d) = %v, want %v", insts, from, to, got, want)
				}
			}
		}
		for i, l := range f.Loops {
			var want []int
			for v := range insts {
				in := v == l.Header
				for _, latch := range l.Latches {
					in = in || g.Reach[v] && reachAvoiding(g, v, l.Header)[latch]
				}
				if in {
					want = append(want, v)
				}
			}
			if !slices.Equal(l.Body, want) {
				t.Fatalf("%v: loop %d (header %d, latches %v) body %v, want %v",
					insts, i, l.Header, l.Latches, l.Body, want)
			}
			if i > 0 && len(f.Loops[i-1].Body) > len(l.Body) {
				t.Fatalf("%v: loops not ordered by body size", insts)
			}
		}
		// innermost is the first loop containing v other than skip.
		innermost := func(v, skip int) int {
			for i := range f.Loops {
				if i != skip && f.Loops[i].Contains(v) {
					return i
				}
			}
			return -1
		}
		for v := range insts {
			if want := innermost(v, -1); f.LoopOf[v] != want {
				t.Fatalf("%v: LoopOf(%d) = %d, want %d", insts, v, f.LoopOf[v], want)
			}
		}
		for i, l := range f.Loops {
			if want := innermost(l.Header, i); l.Parent != want {
				t.Fatalf("%v: loop %d parent %d, want %d", insts, i, l.Parent, want)
			}
			entries := map[int]bool{}
			nested := true
			for v := range insts {
				for _, s := range g.Succs[v] {
					if !g.Reach[v] || l.Contains(v) || !l.Contains(s) {
						continue
					}
					if s != l.Header {
						nested = false // a side entrance
					} else {
						entries[v] = true
						nested = nested && innermost(v, -1) == l.Parent
					}
				}
			}
			if want := uint64(max(len(entries), 1)); l.EntryPreds != want || l.WellNested != nested {
				t.Fatalf("%v: loop %d entries %d well-nested %v, want %d %v",
					insts, i, l.EntryPreds, l.WellNested, want, nested)
			}
		}
	}
	if reducible < 1000 {
		t.Fatalf("only %d reducible programs drawn", reducible)
	}
}

func TestStreamConfigs(t *testing.T) {
	d2 := descriptor.New(0x1000, arch.W4, descriptor.Load).Dim(0, 8, 1).Dim(0, 8, 8).MustBuild()
	parts := func(u int) []isa.Inst { return isa.SCfgParts(u, d2) }
	bad := parts(0)
	bad[0].Cfg.Stream = 40
	var insts []isa.Inst
	insts = append(insts, parts(1)...)             // 0..1: a complete run of u1
	insts = append(insts, bad[0])                  // 2: names u40
	insts = append(insts, parts(2)[0])             // 3: u2 starts ...
	insts = append(insts, parts(2)...)             // 4..5: ... and restarts
	insts = append(insts, parts(3)[1])             // 6: u3 continuation without a start
	insts = append(insts, parts(4)[0])             // 7: u4 never ends
	insts = append(insts, parts(5)[0], isa.Halt()) // 8: u5 never ends
	sites, faults := StreamConfigs(insts)
	wantSites := []Site{{Stream: 1, StartPC: 0, EndPC: 1}, {Stream: 2, StartPC: 4, EndPC: 5}}
	if len(sites) != len(wantSites) {
		t.Fatalf("sites = %+v", sites)
	}
	for i, s := range sites {
		w := wantSites[i]
		if s.Stream != w.Stream || s.StartPC != w.StartPC || s.EndPC != w.EndPC || s.Desc == nil || s.Err != nil {
			t.Errorf("site %d = %+v, want %+v with a descriptor", i, s, w)
		}
	}
	wantFaults := []Fault{
		{BadStream, 2, 40}, {Restarted, 4, 2}, {Orphan, 6, 3},
		{Unterminated, 7, 4}, {Unterminated, 8, 5},
	}
	if !slices.Equal(faults, wantFaults) {
		t.Errorf("faults = %+v, want %+v", faults, wantFaults)
	}
}
