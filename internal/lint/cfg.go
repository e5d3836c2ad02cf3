package lint

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/program"
)

type checker struct {
	p     *program.Program
	opts  *Options
	insts []isa.Inst
	diags []Diagnostic
	deps  []DepPair

	g *cfg.Graph

	sites      []cfg.Site
	siteAt     map[int]int   // end-part pc → index into sites
	configured uint32        // streams with at least one config site
	originUse  map[int][]int // stream → end-part pcs of indirect consumers

	in []state // dataflow fixpoint result

	values *absint.Result // value ranges for store addresses, run on first use
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
	c.g = cfg.New(c.insts)
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

// collectConfigs groups the stream configuration µOps into runs
// (cfg.StreamConfigs) and reports structural sequencing errors: a stream
// that does not exist, a restarted configuration, a continuation without a
// start, a run that does not reassemble into a descriptor, and a start that
// never reaches its ss.end part.
func (c *checker) collectConfigs() {
	sites, faults := cfg.StreamConfigs(c.insts)
	c.sites = sites
	c.siteAt = make(map[int]int, len(sites))
	c.originUse = make(map[int][]int)
	for _, f := range faults {
		switch f.Kind {
		case cfg.BadStream:
			c.errorf(f.PC, "configuration of non-existent stream u%d", f.Stream)
		case cfg.Restarted:
			c.errorf(f.PC, "configuration of u%d restarted before its ss.end part", f.Stream)
		case cfg.Orphan:
			c.errorf(f.PC, "configuration part for u%d without a preceding start part", f.Stream)
		}
	}
	for i, site := range sites {
		c.siteAt[site.EndPC] = i
		c.configured |= 1 << uint(site.Stream)
		if site.Err != nil {
			c.errorf(site.EndPC, "invalid configuration of u%d: %v", site.Stream, site.Err)
			continue
		}
		for _, o := range site.Desc.Origins() {
			c.originUse[o] = append(c.originUse[o], site.EndPC)
		}
	}
	for _, f := range faults {
		if f.Kind == cfg.Unterminated {
			c.errorf(f.PC, "configuration of u%d never completed (missing ss.end part)", f.Stream)
		}
	}
}

// checkCFG reports branch targets outside the program, unreachable code,
// control falling off the end of the program, branches into the middle of a
// configuration run, and loops with no exit (an SCC no edge leaves).
func (c *checker) checkCFG() {
	n := len(c.insts)
	// A target equal to n is a fallthrough past the end: falling off, below.
	for pc := range c.insts {
		in := &c.insts[pc]
		if in.Op.IsBranch() && (in.Target < 0 || in.Target > n) {
			c.errorf(pc, "branch target %d is outside the program", in.Target)
		}
	}
	// Unreachable instructions, reported once per run.
	for pc := 0; pc < n; {
		if c.g.Reach[pc] {
			pc++
			continue
		}
		end := pc
		for end+1 < n && !c.g.Reach[end+1] {
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
		if !c.g.Reach[pc] {
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
	inConfig := make(map[int]*cfg.Site)
	for i := range c.sites {
		s := &c.sites[i]
		for pc := s.StartPC + 1; pc <= s.EndPC; pc++ {
			inConfig[pc] = s
		}
	}
	for pc := range c.insts {
		in := &c.insts[pc]
		if !c.g.Reach[pc] || !in.Op.IsBranch() {
			continue
		}
		if s := inConfig[in.Target]; s != nil {
			c.errorf(pc, "branch into the middle of u%d's configuration (instructions %d..%d)",
				s.Stream, s.StartPC, s.EndPC)
		}
	}
	c.checkInfiniteLoops()
}

// checkInfiniteLoops finds strongly connected components of the reachable
// CFG that contain a cycle but have no edge leaving them: control that
// enters can never reach a halt. Components come from Kosaraju's algorithm:
// searches over Preds, started in reverse DFS postorder.
func (c *checker) checkInfiniteLoops() {
	n := len(c.insts)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	post, _ := c.g.DFS()
	ncomp := 0
	var stack []int
	for i := len(post) - 1; i >= 0; i-- {
		if comp[post[i]] >= 0 {
			continue
		}
		comp[post[i]] = ncomp
		stack = append(stack, post[i])
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range c.g.Preds[v] {
				if c.g.Reach[p] && comp[p] < 0 {
					comp[p] = ncomp
					stack = append(stack, p)
				}
			}
		}
		ncomp++
	}
	// A component is a trap when it has an internal edge (a cycle) and no
	// edge to another component. It is reported once, at its lowest pc.
	hasCycle := make([]bool, ncomp)
	hasExit := make([]bool, ncomp)
	for pc := 0; pc < n; pc++ {
		if comp[pc] < 0 {
			continue
		}
		for _, s := range c.g.Succs[pc] {
			if comp[s] == comp[pc] {
				hasCycle[comp[pc]] = true
			} else {
				hasExit[comp[pc]] = true
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		if k := comp[pc]; k >= 0 && hasCycle[k] && !hasExit[k] {
			c.errorf(pc, "loop starting here has no exit: no stream, predicate or scalar condition ever leaves it")
			hasCycle[k] = false // reported
		}
	}
}
