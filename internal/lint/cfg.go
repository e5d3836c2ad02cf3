package lint

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// cfgSite is one completed stream configuration: the µOp run [startPC,
// endPC] and the descriptor it assembles.
type cfgSite struct {
	idx     int // index into checker.sites
	stream  int
	startPC int
	endPC   int
	desc    *descriptor.Descriptor // nil when reassembly failed
}

type checker struct {
	p     *program.Program
	opts  *Options
	insts []isa.Inst
	diags []Diagnostic
	deps  []DepPair

	succs [][]int // CFG successors per pc
	reach []bool

	sites      []*cfgSite
	siteAt     map[int]*cfgSite // end-part pc → site
	configured uint32           // streams with at least one config site
	originUse  map[int][]int    // stream → end-part pcs of indirect consumers

	in []state // dataflow fixpoint result

	prove    *absint.Result // lazy value-range analysis (opts.Prove)
	proveRan bool
}

func newChecker(p *program.Program, opts *Options) *checker {
	return &checker{
		p:      p,
		opts:   opts,
		insts:  p.Insts,
		siteAt: make(map[int]*cfgSite),
	}
}

func (c *checker) errorf(pc int, format string, args ...any) {
	c.diag(pc, Error, format, args...)
}

func (c *checker) warnf(pc int, format string, args ...any) {
	c.diag(pc, Warn, format, args...)
}

func (c *checker) diag(pc int, sev Severity, format string, args ...any) {
	op := ""
	if pc >= 0 && pc < len(c.insts) {
		op = c.insts[pc].Op.Name()
	}
	c.diags = append(c.diags, Diagnostic{PC: pc, Op: op, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

func (c *checker) run() {
	if len(c.insts) == 0 {
		return
	}
	c.checkRegisters()
	c.collectConfigs()
	c.buildCFG()
	c.checkCFG()
	c.runDataflow()
	c.checkStreamUses()
	c.checkFootprints()
	c.checkDeps()
}

// checkRegisters validates operand register numbers against their class
// sizes before any other analysis indexes by them.
func (c *checker) checkRegisters() {
	var srcs []isa.Reg
	for pc := range c.insts {
		in := &c.insts[pc]
		srcs = srcs[:0]
		srcs = in.Srcs(srcs)
		if in.HasDst() {
			srcs = append(srcs, in.Dst)
		}
		for _, r := range srcs {
			if !r.Valid() {
				c.errorf(pc, "register %s does not exist", r)
			}
		}
	}
}

// collectConfigs scans the program linearly, assembling every stream
// configuration µOp run into a descriptor and flagging structural sequencing
// errors (a restarted configuration, a continuation without a start, a
// start that never reaches its ss.end part).
func (c *checker) collectConfigs() {
	pending := make(map[int][]*isa.StreamCfgPart)
	pendingStart := make(map[int]int)
	for pc := range c.insts {
		in := &c.insts[pc]
		if in.Op != isa.OpSCfg || in.Cfg == nil {
			continue
		}
		part := in.Cfg
		u := part.Stream
		if u < 0 || u >= isa.NumVecRegs {
			c.errorf(pc, "configuration of non-existent stream u%d", u)
			continue
		}
		if part.Start {
			if len(pending[u]) > 0 {
				c.errorf(pc, "configuration of u%d restarted before its ss.end part", u)
			}
			pending[u] = pending[u][:0]
			pendingStart[u] = pc
		} else if len(pending[u]) == 0 {
			c.errorf(pc, "configuration part for u%d without a preceding start part", u)
			continue
		}
		pending[u] = append(pending[u], part)
		if part.End {
			site := &cfgSite{idx: len(c.sites), stream: u, startPC: pendingStart[u], endPC: pc}
			if d, err := isa.RebuildDescriptor(pending[u]); err != nil {
				c.errorf(pc, "invalid configuration of u%d: %v", u, err)
			} else {
				site.desc = d
			}
			c.sites = append(c.sites, site)
			c.siteAt[pc] = site
			c.configured |= 1 << uint(u)
			pending[u] = nil
		}
	}
	for u, parts := range pending {
		if len(parts) > 0 {
			c.errorf(pendingStart[u], "configuration of u%d never completed (missing ss.end part)", u)
		}
	}
	c.originUse = make(map[int][]int)
	for _, site := range c.sites {
		if site.desc == nil {
			continue
		}
		for _, o := range site.desc.Origins() {
			c.originUse[o] = append(c.originUse[o], site.endPC)
		}
	}
}

// buildCFG derives per-instruction successor lists and reachability from
// entry. A fallthrough past the last instruction has no successor; checkCFG
// reports it.
func (c *checker) buildCFG() {
	n := len(c.insts)
	c.succs = make([][]int, n)
	for pc := range c.insts {
		in := &c.insts[pc]
		switch {
		case in.Op == isa.OpHalt:
		case in.Op == isa.OpJ:
			c.addSucc(pc, in.Target)
		case in.Op.IsBranch():
			c.addSucc(pc, in.Target)
			c.addSucc(pc, pc+1)
		default:
			c.addSucc(pc, pc+1)
		}
	}
	c.reach = make([]bool, n)
	stack := []int{0}
	c.reach[0] = true
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.succs[pc] {
			if !c.reach[s] {
				c.reach[s] = true
				stack = append(stack, s)
			}
		}
	}
}

func (c *checker) addSucc(pc, to int) {
	if to < 0 || to >= len(c.insts) {
		// Fallthrough past the end (or a corrupt target); no successor.
		if to != len(c.insts) {
			c.errorf(pc, "branch target %d is outside the program", to)
		}
		return
	}
	c.succs[pc] = append(c.succs[pc], to)
}

// checkCFG reports unreachable code, control falling off the end of the
// program, branches into the middle of a configuration run, and loops with
// no exit (an SCC no edge leaves).
func (c *checker) checkCFG() {
	n := len(c.insts)
	// Unreachable instructions, reported once per run.
	for pc := 0; pc < n; {
		if c.reach[pc] {
			pc++
			continue
		}
		end := pc
		for end+1 < n && !c.reach[end+1] {
			end++
		}
		if end > pc {
			c.warnf(pc, "instructions %d..%d are unreachable", pc, end)
		} else {
			c.warnf(pc, "instruction is unreachable")
		}
		pc = end + 1
	}
	// Falling off the end: a reachable instruction whose fallthrough leaves
	// the program without a halt.
	for pc := range c.insts {
		if !c.reach[pc] {
			continue
		}
		in := &c.insts[pc]
		fallsOff := false
		switch {
		case in.Op == isa.OpHalt || in.Op == isa.OpJ:
		case pc+1 >= n:
			fallsOff = true
		}
		if fallsOff {
			c.warnf(pc, "control can fall off the end of the program without a halt")
		}
	}
	// Branches into the middle of a configuration run would deliver
	// continuation parts without their start.
	inConfig := make(map[int]*cfgSite)
	for _, s := range c.sites {
		for pc := s.startPC + 1; pc <= s.endPC; pc++ {
			inConfig[pc] = s
		}
	}
	for pc := range c.insts {
		in := &c.insts[pc]
		if !c.reach[pc] || !in.Op.IsBranch() {
			continue
		}
		if s := inConfig[in.Target]; s != nil {
			c.errorf(pc, "branch into the middle of u%d's configuration (instructions %d..%d)",
				s.stream, s.startPC, s.endPC)
		}
	}
	c.checkInfiniteLoops()
}

// checkInfiniteLoops finds strongly connected components of the reachable
// CFG that contain a cycle but have no edge leaving them: control that
// enters can never reach a halt.
func (c *checker) checkInfiniteLoops() {
	n := len(c.insts)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	// Iterative Tarjan.
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	ncomp := 0
	type frame struct{ pc, si int }
	for start := 0; start < n; start++ {
		if !c.reach[start] || index[start] != -1 {
			continue
		}
		frames := []frame{{start, 0}}
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < len(c.succs[f.pc]) {
				s := c.succs[f.pc][f.si]
				f.si++
				if index[s] == -1 {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					frames = append(frames, frame{s, 0})
				} else if onStack[s] && low[f.pc] > index[s] {
					low[f.pc] = index[s]
				}
				continue
			}
			if low[f.pc] == index[f.pc] {
				for {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[v] = false
					comp[v] = ncomp
					if v == f.pc {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				g := &frames[len(frames)-1]
				if low[g.pc] > low[f.pc] {
					low[g.pc] = low[f.pc]
				}
			}
		}
	}
	// A component is a trap when it has an internal edge (a cycle) and no
	// edge to another component.
	hasCycle := make([]bool, ncomp)
	hasExit := make([]bool, ncomp)
	first := make([]int, ncomp)
	for i := range first {
		first[i] = -1
	}
	for pc := n - 1; pc >= 0; pc-- {
		if comp[pc] >= 0 {
			first[comp[pc]] = pc
		}
	}
	for pc := 0; pc < n; pc++ {
		if comp[pc] < 0 {
			continue
		}
		for _, s := range c.succs[pc] {
			if comp[s] == comp[pc] {
				hasCycle[comp[pc]] = true
			} else {
				hasExit[comp[pc]] = true
			}
		}
	}
	for i := 0; i < ncomp; i++ {
		if hasCycle[i] && !hasExit[i] {
			c.errorf(first[i], "loop starting here has no exit: no stream, predicate or scalar condition ever leaves it")
		}
	}
}
