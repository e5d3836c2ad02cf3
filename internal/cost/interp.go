package cost

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// absVal is an abstract integer register: a concrete value, or unknown
// (loaded from data memory, or derived from such a value).
type absVal struct {
	known bool
	v     uint64
}

// absPred is an abstract predicate register.
type absPred struct {
	known bool
	p     isa.PredVal
}

// absFlags is an abstract end-of-dimension flag snapshot.
type absFlags struct {
	known bool
	end   uint16
	last  bool
}

// astream is the static analogue of a funcsim stream instance: the same
// lifecycle (configure, consume/produce, release) driven by the statically
// derived chunk structure instead of materialized chunks.
type astream struct {
	u     int
	kind  descriptor.Kind
	w     arch.ElemWidth
	level arch.CacheLevel

	configuring bool
	parts       []*isa.StreamCfgPart
	suspended   bool
	released    bool

	work *streamWork
	pos  int64
	// posUnknown marks instances whose consumption position cannot be
	// tracked (inexact chunk count): their flags and traffic degrade to
	// intervals, never to a guess.
	posUnknown bool
	flags      absFlags
	// drained counts origin elements consumed by dependent generations (the
	// engine commits origin chunks as the dependent walk settles them).
	drained int64
}

// interp interprets the program over abstract values, mirroring the
// functional tier's step semantics instruction for instruction — but with
// no data memory, so loads produce unknowns and control flow must be
// resolvable from register arguments and descriptor structure alone.
type interp struct {
	prog       *program.Program
	vecBytes   int // physical vector width (clamps ss.setvl)
	walkBudget int64
	maxSteps   int64

	intR  [isa.NumIntRegs]absVal
	preds [isa.NumPredRegs]absPred

	effVecBytes int

	sat       [isa.NumVecRegs]*astream
	lastFlags [isa.NumVecRegs]absFlags
	all       []*astream

	committed uint64
	byKind    [isa.KindCount]uint64

	readLines  map[uint64]struct{}
	writeLines map[uint64]struct{}
	// writesUnknown poisons the read-only line classification: some store's
	// target lines could not be bounded, so no line can be proven read-only.
	writesUnknown bool
	unknownLoads  int // loads whose lines were skipped (footprint under-approximated)

	bailed  bool
	bailMsg string
	diags   []string
}

func newInterp(p *program.Program, vecBytes int, walkBudget, maxSteps int64) *interp {
	in := &interp{
		prog:        p,
		vecBytes:    vecBytes,
		walkBudget:  walkBudget,
		maxSteps:    maxSteps,
		effVecBytes: vecBytes,
		readLines:   map[uint64]struct{}{},
		writeLines:  map[uint64]struct{}{},
	}
	for i := range in.intR {
		in.intR[i] = absVal{known: true}
	}
	for i := range in.preds {
		in.preds[i] = absPred{known: true}
	}
	in.preds[0] = absPred{known: true, p: isa.AllLanes}
	for i := range in.lastFlags {
		in.lastFlags[i] = absFlags{known: true}
	}
	return in
}

func (in *interp) setIntReg(n int, v uint64) {
	if n != 0 {
		in.intR[n] = absVal{known: true, v: v}
	}
}

func (in *interp) lanes(w arch.ElemWidth) int { return arch.LanesFor(in.effVecBytes, w) }

func (in *interp) bail(pc int, format string, args ...any) {
	if in.bailed {
		return
	}
	in.bailed = true
	in.bailMsg = fmt.Sprintf("pc %d: %s", pc, fmt.Sprintf(format, args...))
}

func (in *interp) diag(format string, args ...any) {
	in.diags = append(in.diags, fmt.Sprintf(format, args...))
}

// readInt reads an abstract scalar operand (funcsim's operandU64 for the
// classes the analyzer tracks; FP bit patterns are untracked — they never
// reach control flow).
func (in *interp) readInt(r isa.Reg) absVal {
	switch r.Class {
	case isa.ClassInt:
		return in.intR[r.N]
	case isa.ClassFP:
		return absVal{}
	}
	return absVal{known: true}
}

func (in *interp) writeScalar(r isa.Reg, v absVal) {
	if r.Class == isa.ClassInt && r.N != 0 {
		in.intR[r.N] = v
	}
}

func (in *interp) operandPred(i *isa.Inst) absPred {
	if i.Pred.Class != isa.ClassPred {
		return absPred{known: true, p: isa.AllLanes}
	}
	return in.preds[i.Pred.N]
}

func (in *interp) readPredSrc(i *isa.Inst) absPred {
	if i.Src1.Class != isa.ClassPred {
		return absPred{known: true, p: isa.AllLanes}
	}
	return in.preds[i.Src1.N]
}

// run interprets from pc 0 until halt, bail, or the step budget.
func (in *interp) run() {
	pc := 0
	for n := int64(0); ; n++ {
		if in.bailed {
			return
		}
		if n >= in.maxSteps {
			in.bail(pc, "interpreter step budget (%d) exhausted", in.maxSteps)
			return
		}
		if pc < 0 || pc >= in.prog.Len() {
			in.bail(pc, "control left the program")
			return
		}
		next, halt := in.step(pc)
		if halt || in.bailed {
			return
		}
		pc = next
	}
}

// step mirrors funcsim's program-order step over abstract values. The
// committed/by-kind tallies advance only for instructions whose execution
// is fully resolved, so the tallies are exact on success and an exact
// prefix (hence a sound lower bound) on bail.
func (in *interp) step(pc int) (next int, halt bool) {
	inst := in.prog.At(pc)
	op := inst.Op
	next = pc + 1

	var prod *astream
	if op.HasDataOperands() {
		seen := [3]int{-1, -1, -1}
		for _, r := range [...]isa.Reg{inst.Src1, inst.Src2, inst.Src3} {
			if r.Class != isa.ClassVec {
				continue
			}
			s := in.sat[r.N]
			if s == nil || s.suspended || s.kind != descriptor.Load {
				continue
			}
			if s.configuring {
				in.bail(pc, "u%d consumed while still configuring", r.N)
				return
			}
			dup := false
			for _, u := range seen {
				if u == int(r.N) {
					dup = true
				}
			}
			if dup {
				continue
			}
			seen[0], seen[1], seen[2] = seen[1], seen[2], int(r.N)
			in.consume(s)
		}
		if inst.Dst.Class == isa.ClassVec {
			if s := in.sat[inst.Dst.N]; s != nil && !s.suspended && s.kind == descriptor.Store {
				if s.configuring {
					in.bail(pc, "u%d produced while still configuring", inst.Dst.N)
					return
				}
				prod = s
			}
		}
	}
	produceDst := func() {
		if prod != nil {
			in.produce(prod)
		}
	}

	switch {
	case op == isa.OpSCfg:
		in.configPart(pc, inst.Cfg)
		if in.bailed {
			return
		}

	case op == isa.OpNop:
	case op == isa.OpHalt:
		halt = true

	case op == isa.OpSSuspend:
		if s := in.sat[inst.Dst.N]; s != nil {
			s.suspended = true
		}
	case op == isa.OpSResume:
		if s := in.sat[inst.Dst.N]; s != nil {
			s.suspended = false
		}
	case op == isa.OpSStop:
		if s := in.sat[inst.Dst.N]; s != nil {
			in.release(s)
		}
	case op == isa.OpSForce:
		// Timing-only hint; architecturally a no-op.

	case op.IsStreamBranch():
		f := in.streamFlags(int(inst.Src1.N))
		if !f.known {
			in.bail(pc, "stream branch on u%d: flags are data-dependent", inst.Src1.N)
			return
		}
		taken := false
		switch op {
		case isa.OpSBNotEnd:
			taken = !f.last
		case isa.OpSBEnd:
			taken = f.last
		case isa.OpSBDimNotEnd:
			taken = f.end&(1<<uint(inst.Imm)) == 0
		case isa.OpSBDimEnd:
			taken = f.end&(1<<uint(inst.Imm)) != 0
		}
		if taken {
			next = inst.Target
		}

	case op == isa.OpJ:
		next = inst.Target
	case op == isa.OpBeq || op == isa.OpBne || op == isa.OpBlt || op == isa.OpBge:
		a, b := in.readInt(inst.Src1), in.readInt(inst.Src2)
		if !a.known || !b.known {
			in.bail(pc, "conditional branch on a data-dependent value")
			return
		}
		if isa.EvalCondBranch(op, a.v, b.v) {
			next = inst.Target
		}
	case op == isa.OpBFirst:
		p := in.readPredSrc(&inst)
		if !p.known {
			in.bail(pc, "predicate branch on a data-dependent predicate")
			return
		}
		if p.p.Any() {
			next = inst.Target
		}
	case op == isa.OpBNone:
		p := in.readPredSrc(&inst)
		if !p.known {
			in.bail(pc, "predicate branch on a data-dependent predicate")
			return
		}
		if !p.p.Any() {
			next = inst.Target
		}

	case op == isa.OpSSetVL:
		a := in.readInt(inst.Src1)
		if !a.known {
			in.bail(pc, "ss.setvl with a data-dependent request")
			return
		}
		req := int(a.v)
		max := arch.LanesFor(in.vecBytes, inst.W)
		if req <= 0 || req > max {
			req = max
		}
		in.effVecBytes = req * int(inst.W)
		in.writeScalar(inst.Dst, absVal{known: true, v: uint64(req)})

	case op == isa.OpWhilelt:
		a, b := in.readInt(inst.Src1), in.readInt(inst.Src2)
		if a.known && b.known {
			in.preds[inst.Dst.N] = absPred{known: true, p: isa.EvalWhilelt(a.v, b.v, in.lanes(inst.W))}
		} else {
			in.preds[inst.Dst.N] = absPred{}
		}
	case op == isa.OpPTrue:
		in.preds[inst.Dst.N] = absPred{known: true, p: isa.PredVal{Active: in.lanes(inst.W)}}
	case op == isa.OpPNot:
		p := in.readPredSrc(&inst)
		if p.known {
			n := in.lanes(inst.W)
			in.preds[inst.Dst.N] = absPred{known: true, p: isa.PredVal{Active: n - p.p.Limit(n)}}
		} else {
			in.preds[inst.Dst.N] = absPred{}
		}
	case op == isa.OpIncVL:
		a := in.readInt(inst.Src1)
		in.writeScalar(inst.Dst, absVal{known: a.known, v: a.v + uint64(in.lanes(inst.W))})
	case op == isa.OpGetVL:
		in.writeScalar(inst.Dst, absVal{known: true, v: uint64(in.lanes(inst.W))})

	case op.Kind() == isa.KindIntALU:
		a, b := in.readInt(inst.Src1), in.readInt(inst.Src2)
		if a.known && b.known {
			in.writeScalar(inst.Dst, absVal{known: true, v: isa.EvalInt(op, a.v, b.v, inst.Imm)})
		} else {
			in.writeScalar(inst.Dst, absVal{})
		}
	case op.Kind() == isa.KindFPALU:
		// FP values are untracked; an integer destination (none in the
		// current ISA) would simply become unknown.
		in.writeScalar(inst.Dst, absVal{})

	case op == isa.OpVFAddV || op == isa.OpVFMaxV || op == isa.OpVFMinV:
		produceDst()
	case op == isa.OpVFAddVF || op == isa.OpVFMaxVF || op == isa.OpVFMinVF:
		in.writeScalar(inst.Dst, absVal{})

	case op.Kind() == isa.KindVecALU:
		if inst.Dst.Class == isa.ClassVec {
			produceDst()
		} else {
			in.writeScalar(inst.Dst, absVal{})
		}

	case op == isa.OpLoad || op == isa.OpFLoad:
		a := in.readInt(inst.Src1)
		if a.known {
			in.readLines[arch.LineOf(a.v+uint64(inst.Imm))] = struct{}{}
		} else {
			in.unknownLoads++
		}
		in.writeScalar(inst.Dst, absVal{})

	case op == isa.OpVLoad:
		base, idx := in.readInt(inst.Src1), in.readInt(inst.Src2)
		p := in.operandPred(&inst)
		if base.known && idx.known && p.known {
			addr := base.v + (idx.v+uint64(inst.Imm))*uint64(inst.W)
			n := p.p.Limit(in.lanes(inst.W))
			for i := 0; i < n; i++ {
				in.readLines[arch.LineOf(addr+uint64(i)*uint64(inst.W))] = struct{}{}
			}
		} else {
			in.unknownLoads++
		}
		produceDst()

	case op == isa.OpVLoadG:
		// Gather indices come from vector data the analyzer does not track:
		// the read footprint is under-approximated, which keeps the DRAM
		// bound sound.
		in.unknownLoads++
		produceDst()

	case op == isa.OpStore || op == isa.OpFStore:
		a := in.readInt(inst.Src1)
		if a.known {
			in.noteWriteSpan(a.v+uint64(inst.Imm), int(inst.W))
		} else {
			in.writesUnknown = true
		}

	case op == isa.OpVStore:
		base, idx := in.readInt(inst.Src1), in.readInt(inst.Src2)
		if base.known && idx.known {
			n := in.lanes(inst.W)
			if p := in.operandPred(&inst); p.known {
				n = p.p.Limit(n)
			}
			addr := base.v + (idx.v+uint64(inst.Imm))*uint64(inst.W)
			in.noteWriteSpan(addr, n*int(inst.W))
		} else {
			in.writesUnknown = true
		}

	default:
		in.bail(pc, "unmodeled op %s", op.Name())
		return
	}

	in.committed++
	in.byKind[op.Kind()]++
	return next, halt
}

// noteWriteSpan over-approximates a store's touched lines (including a
// straddled final line), as the read-only classification requires.
func (in *interp) noteWriteSpan(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	first := arch.LineOf(addr)
	last := arch.LineOf(addr + uint64(bytes) - 1)
	for l := first; l <= last; l += arch.LineSize {
		in.writeLines[l] = struct{}{}
	}
}

// configPart mirrors funcsim.configPart: the End part rebuilds the
// descriptor and derives the instance's work statically.
func (in *interp) configPart(pc int, p *isa.StreamCfgPart) {
	u := p.Stream
	if p.Start {
		s := &astream{u: u, configuring: true, kind: p.Kind, flags: absFlags{known: true}}
		in.sat[u] = s
		in.all = append(in.all, s)
	}
	s := in.sat[u]
	if s == nil || !s.configuring {
		in.bail(pc, "stream config part for u%d without an open configuration", u)
		return
	}
	s.parts = append(s.parts, p)
	if !p.End {
		return
	}
	d, err := isa.RebuildDescriptor(s.parts)
	if err != nil {
		in.bail(pc, "u%d: %v", u, err)
		return
	}
	s.parts = nil
	s.configuring = false
	s.kind = d.Kind
	s.w = d.Width
	s.level = d.Level
	in.generate(pc, s, d)
}

// generate derives the instance's statically known work, mirroring the
// functional tier's eager generation: origin streams supply element counts
// (their values are irrelevant without Size-target indirection), and
// origins a full generation drains release here.
func (in *interp) generate(pc int, s *astream, d *descriptor.Descriptor) {
	originElems := map[int]int64{}
	var origins []*astream
	if d.HasIndirect() {
		for _, ou := range d.Origins() {
			os := in.sat[ou]
			if os == nil || os.configuring {
				in.bail(pc, "u%d: indirect origin u%d not configured", s.u, ou)
				return
			}
			origins = append(origins, os)
			if os.work != nil && os.work.exact {
				originElems[ou] = os.work.elems
			}
		}
	}
	s.work = computeWork(d, in.lanes(d.Width), originElems, in.walkBudget)
	if !s.work.exact {
		s.posUnknown = true
		s.flags = absFlags{}
		in.diag("u%d: %s", s.u, s.work.note)
		// Origins partially drained by an unbounded generation lose their
		// position too.
		for _, os := range origins {
			os.posUnknown = true
			os.flags = absFlags{}
		}
		return
	}
	for _, os := range origins {
		used := s.work.originUsed[os.u]
		if used > os.drained {
			os.drained = used
		}
		if os.released || os.work == nil || !os.work.exact || os.work.chunks == 0 {
			continue
		}
		if used >= os.work.elems {
			os.pos = os.work.chunks
			end, last := os.work.flagAt(os.work.chunks - 1)
			os.flags = absFlags{known: true, end: end, last: last}
			in.release(os)
		}
	}
}

// consume mirrors funcsim.consume: advance the position, snapshot the
// chunk's flags, release on the final chunk. Past the end nothing changes.
func (in *interp) consume(s *astream) {
	if s.posUnknown {
		s.flags = absFlags{}
		return
	}
	if s.pos >= s.work.chunks {
		return
	}
	s.pos++
	end, last := s.work.flagAt(s.pos - 1)
	s.flags = absFlags{known: true, end: end, last: last}
	if s.pos == s.work.chunks {
		in.release(s)
	}
}

// produce mirrors funcsim.produce; store values are irrelevant statically,
// but the position/flag/release bookkeeping is identical to consume's.
func (in *interp) produce(s *astream) { in.consume(s) }

func (in *interp) release(s *astream) {
	if s.released {
		return
	}
	s.released = true
	in.lastFlags[s.u] = s.flags
	if in.sat[s.u] == s {
		in.sat[s.u] = nil
	}
}

func (in *interp) streamFlags(u int) absFlags {
	if s := in.sat[u]; s != nil && !s.suspended {
		return s.flags
	}
	return in.lastFlags[u]
}
