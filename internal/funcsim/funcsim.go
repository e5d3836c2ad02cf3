// Package funcsim is the functional execution tier: a program-order
// interpreter for the simulated ISA that produces final memory, committed
// instruction counts and sanitizer-visible stream accesses — but no cycle
// counts. It exists for the runs where only architectural results matter
// (lint sweeps, fault-oracle baselines, fuzz corpora, correctness CI), at a
// fraction of the detailed model's cost.
//
// Stream descriptors are iterated through internal/descriptor's Iterator —
// the same address-generation logic the cycle engine's Descriptor Iterator
// uses — so pattern semantics cannot drift between tiers, and stream
// accesses are shadow-tracked through the engine's sanitizer (engine.Shadow)
// so collision semantics cannot drift either. The remaining semantics
// (operand selection, stream consume/produce rules, branch-flag snapshots,
// predication, effective vector length) transliterate the out-of-order
// core's rename/execute/commit rules into program order; the differential
// oracle in internal/sim compares the two tiers over every kernel, variant
// and size grid.
package funcsim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Config parameterizes a functional run.
type Config struct {
	// VecBytes is the physical vector register width in bytes.
	VecBytes int
	// Sanitize enables byte-granular shadow tracking of stream accesses;
	// collisions accumulate in Collisions.
	Sanitize bool
	// MaxInsts bounds the run (0 = a practically unlimited default). The
	// functional tier has no cycles, so forward progress is bounded in
	// committed instructions instead.
	MaxInsts int64
	// Cancel, when non-nil, is polled every cancelBatch interpreted
	// instructions; a non-nil return aborts the run with that error
	// verbatim (the sim layer passes a check returning its typed
	// *sim.CanceledError).
	Cancel func(insts int64) error
}

// cancelBatch is the cancellation polling granularity in interpreted
// instructions, mirroring the detailed core's cycle-batch polling.
const cancelBatch = 4096

// chunk is one generated vector chunk: its element addresses plus the
// end-of-dimension flags of its closing element, exactly as the cycle
// engine's FIFO chunks carry them.
type chunk struct {
	addrs []uint64
	end   uint16
	last  bool
}

// stream is one configured stream instance (the functional analogue of an
// engine stream-table slot).
type stream struct {
	u    int
	slot int // unique per instance, for shadow bookkeeping
	desc *descriptor.Descriptor
	kind descriptor.Kind
	w    arch.ElemWidth

	configuring bool
	parts       []*isa.StreamCfgPart
	suspended   bool
	released    bool

	chunks []chunk
	elems  int64
	pos    int // next chunk to consume (loads) or fill (stores)

	// Flags of the most recently delivered chunk — what the engine's
	// SpecFlags reports for a live slot.
	lastEnd  uint16
	lastLast bool
}

// flagPair is the per-register flag memory surviving a release (the
// engine's LastFlags table).
type flagPair struct {
	end  uint16
	last bool
}

// Machine interprets one program against a backing store.
type Machine struct {
	cfg  Config
	prog *program.Program
	mem  *mem.Memory

	intR [isa.NumIntRegs]uint64
	fpR  [isa.NumFPRegs]uint64
	vecR [isa.NumVecRegs]isa.VecVal
	prR  [isa.NumPredRegs]isa.PredVal

	effVecBytes int

	sat       [isa.NumVecRegs]*stream
	lastFlags [isa.NumVecRegs]flagPair
	nextSlot  int

	// Origin shadow iterators (the engine's shadowSource): a dependent
	// stream's indirect modifiers consume origin values through a separate
	// walk of the origin's descriptor, reading memory directly.
	originIts [isa.NumVecRegs]*descriptor.Iterator
	originWs  [isa.NumVecRegs]arch.ElemWidth
	originCum [isa.NumVecRegs]int64

	shadow *engine.Shadow

	committed uint64
	byKind    [isa.KindCount]uint64

	stepHook func(pc int)

	// consBuf holds the current instruction's consumed chunks (step is not
	// reentrant), so a step does not zero a fresh buffer of vector values.
	consBuf [3]consumedVal
}

// New builds a functional machine over the program and backing store.
func New(cfg Config, p *program.Program, m *mem.Memory) *Machine {
	fm := &Machine{cfg: cfg, prog: p, mem: m, effVecBytes: cfg.VecBytes}
	fm.prR[0] = isa.AllLanes
	if cfg.Sanitize {
		fm.shadow = engine.NewShadow()
	}
	return fm
}

// SetIntReg presets integer register n (x0 stays hardwired to zero).
func (m *Machine) SetIntReg(n int, v uint64) {
	if n == 0 {
		return
	}
	m.intR[n] = v
}

// SetFPReg presets FP register n with a float of width w.
func (m *Machine) SetFPReg(n int, w arch.ElemWidth, v float64) {
	m.fpR[n] = isa.FloatBits(w, v)
}

// IntReg reads integer register n's current value.
func (m *Machine) IntReg(n int) uint64 {
	if n < 0 || n >= isa.NumIntRegs {
		return 0
	}
	return m.intR[n]
}

// FPReg reads FP register n's current value as a float of width w.
func (m *Machine) FPReg(n int, w arch.ElemWidth) float64 {
	return isa.BitsFloat(w, m.fpR[n])
}

// SetStepHook installs fn to run immediately before each instruction
// executes, with the register file in its pre-execution state — the probe
// differential oracles (e.g. the absint soundness fuzzer) observe through.
func (m *Machine) SetStepHook(fn func(pc int)) { m.stepHook = fn }

// Committed returns the committed instruction count.
func (m *Machine) Committed() uint64 { return m.committed }

// CommittedByKind returns the per-kind commit counts.
func (m *Machine) CommittedByKind() [isa.KindCount]uint64 { return m.byKind }

// Collisions returns the shadow tracker's observations (Config.Sanitize).
func (m *Machine) Collisions() []engine.Collision {
	if m.shadow == nil {
		return nil
	}
	return m.shadow.Collisions()
}

// Run interprets the program to its halt.
func (m *Machine) Run() error {
	bound := m.cfg.MaxInsts
	if bound <= 0 {
		bound = 1 << 62
	}
	pc := 0
	for n := int64(0); ; n++ {
		if n >= bound {
			return fmt.Errorf("funcsim: instruction budget (%d) exhausted at pc %d — livelocked program?", bound, pc)
		}
		if m.cfg.Cancel != nil && n%cancelBatch == 0 {
			if err := m.cfg.Cancel(n); err != nil {
				return err
			}
		}
		if m.stepHook != nil {
			m.stepHook(pc)
		}
		next, halt, err := m.step(pc)
		if err != nil {
			return err
		}
		if halt {
			return nil
		}
		pc = next
	}
}

func (m *Machine) lanes(w arch.ElemWidth) int { return arch.LanesFor(m.effVecBytes, w) }

// consumedVal is one stream chunk consumed by the current instruction,
// substituted for every source occurrence of its register.
type consumedVal struct {
	u uint8
	v isa.VecVal
}

func (m *Machine) operandU64(r isa.Reg) uint64 {
	switch r.Class {
	case isa.ClassInt:
		return m.intR[r.N]
	case isa.ClassFP:
		return m.fpR[r.N]
	}
	return 0
}

// noVec is the absent operand read for a non-vector register.
var noVec isa.VecVal

func (m *Machine) operandVec(r isa.Reg, cons []consumedVal) *isa.VecVal {
	if r.Class != isa.ClassVec {
		return &noVec
	}
	for i := range cons {
		if cons[i].u == r.N {
			return &cons[i].v
		}
	}
	return &m.vecR[r.N]
}

func (m *Machine) operandPred(in *isa.Inst) isa.PredVal {
	if in.Pred.Class != isa.ClassPred {
		return isa.AllLanes
	}
	return m.prR[in.Pred.N]
}

func (m *Machine) readPredSrc(in *isa.Inst) isa.PredVal {
	if in.Src1.Class != isa.ClassPred {
		return isa.AllLanes
	}
	return m.prR[in.Src1.N]
}

func (m *Machine) writeScalar(r isa.Reg, v uint64) {
	switch r.Class {
	case isa.ClassInt:
		if r.N != 0 {
			m.intR[r.N] = v
		}
	case isa.ClassFP:
		m.fpR[r.N] = v
	}
}

// step interprets the instruction at pc: operand reads (with stream-consume
// substitution), evaluation, and the commit-time effects, all collapsed
// into one program-order step.
func (m *Machine) step(pc int) (next int, halt bool, err error) {
	in := m.prog.At(pc)
	op := in.Op
	next = pc + 1

	// Stream consumes: one chunk per distinct live input-stream source,
	// substituted for all matching occurrences (the rename-stage rule).
	cons := m.consBuf[:0]
	var prod *stream
	if op.HasDataOperands() {
		for _, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
			if r.Class != isa.ClassVec {
				continue
			}
			s := m.sat[r.N]
			if s == nil || s.suspended || s.kind != descriptor.Load {
				continue
			}
			if s.configuring {
				return 0, false, fmt.Errorf("funcsim: pc %d: u%d consumed while still configuring", pc, r.N)
			}
			dup := false
			for _, c := range cons {
				if c.u == r.N {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			cons = append(cons, consumedVal{u: r.N})
			m.consume(s, &cons[len(cons)-1].v)
		}
		if in.Dst.Class == isa.ClassVec {
			if s := m.sat[in.Dst.N]; s != nil && !s.suspended && s.kind == descriptor.Store {
				if s.configuring {
					return 0, false, fmt.Errorf("funcsim: pc %d: u%d produced while still configuring", pc, in.Dst.N)
				}
				prod = s
			}
		}
	}
	// writeVecDst routes a vector result to the output stream when the
	// destination is one, to the architectural register otherwise.
	writeVecDst := func(v *isa.VecVal) {
		if prod != nil {
			m.produce(prod, v)
			return
		}
		m.vecR[in.Dst.N] = *v
	}

	switch {
	case op == isa.OpSCfg:
		if err := m.configPart(in.Cfg); err != nil {
			return 0, false, fmt.Errorf("funcsim: pc %d: %w", pc, err)
		}

	case op == isa.OpNop:
	case op == isa.OpHalt:
		halt = true

	case op == isa.OpSSuspend:
		if s := m.sat[in.Dst.N]; s != nil {
			s.suspended = true
		}
	case op == isa.OpSResume:
		if s := m.sat[in.Dst.N]; s != nil {
			s.suspended = false
		}
	case op == isa.OpSStop:
		if s := m.sat[in.Dst.N]; s != nil {
			m.release(s)
		}
	case op == isa.OpSForce:
		// Timing-only hint in the detailed model; architecturally a no-op.

	case op.IsStreamBranch():
		end, last := m.streamFlags(int(in.Src1.N))
		dim := int(in.Imm)
		taken := false
		switch op {
		case isa.OpSBNotEnd:
			taken = !last
		case isa.OpSBEnd:
			taken = last
		case isa.OpSBDimNotEnd:
			taken = end&(1<<uint(dim)) == 0
		case isa.OpSBDimEnd:
			taken = end&(1<<uint(dim)) != 0
		}
		if taken {
			next = in.Target
		}

	case op == isa.OpJ:
		next = in.Target
	case op == isa.OpBeq || op == isa.OpBne || op == isa.OpBlt || op == isa.OpBge:
		if isa.EvalCondBranch(op, m.operandU64(in.Src1), m.operandU64(in.Src2)) {
			next = in.Target
		}
	case op == isa.OpBFirst:
		if m.readPredSrc(&in).Any() {
			next = in.Target
		}
	case op == isa.OpBNone:
		if !m.readPredSrc(&in).Any() {
			next = in.Target
		}

	case op == isa.OpSSetVL:
		req := int(m.operandU64(in.Src1))
		max := arch.LanesFor(m.cfg.VecBytes, in.W)
		if req <= 0 || req > max {
			req = max
		}
		m.effVecBytes = req * int(in.W)
		m.writeScalar(in.Dst, uint64(req))

	case op == isa.OpWhilelt:
		m.prR[in.Dst.N] = isa.EvalWhilelt(m.operandU64(in.Src1), m.operandU64(in.Src2), m.lanes(in.W))
	case op == isa.OpPTrue:
		m.prR[in.Dst.N] = isa.PredVal{Active: m.lanes(in.W)}
	case op == isa.OpPNot:
		p := m.readPredSrc(&in)
		m.prR[in.Dst.N] = isa.PredVal{Active: m.lanes(in.W) - p.Limit(m.lanes(in.W))}
	case op == isa.OpIncVL:
		m.writeScalar(in.Dst, m.operandU64(in.Src1)+uint64(m.lanes(in.W)))
	case op == isa.OpGetVL:
		m.writeScalar(in.Dst, uint64(m.lanes(in.W)))

	case op.Kind() == isa.KindIntALU:
		m.writeScalar(in.Dst, isa.EvalInt(op, m.operandU64(in.Src1), m.operandU64(in.Src2), in.Imm))
	case op.Kind() == isa.KindFPALU:
		m.writeScalar(in.Dst, isa.EvalFP(op, in.W,
			m.operandU64(in.Src1), m.operandU64(in.Src2), m.operandU64(in.Src3), in.Imm))

	case op == isa.OpVFAddV || op == isa.OpVFMaxV || op == isa.OpVFMinV:
		res := isa.NewVec(in.W, 1)
		res.SetLane(0, isa.EvalVecHoriz(op, in.W, m.operandVec(in.Src1, cons)))
		writeVecDst(&res)
	case op == isa.OpVFAddVF || op == isa.OpVFMaxVF || op == isa.OpVFMinVF:
		m.writeScalar(in.Dst, isa.EvalVecHoriz(op, in.W, m.operandVec(in.Src1, cons)))

	case op.Kind() == isa.KindVecALU:
		args := isa.VecArgs{
			A: m.operandVec(in.Src1, cons), B: m.operandVec(in.Src2, cons), C: m.operandVec(in.Src3, cons),
			Pred: m.operandPred(&in), Lanes: m.lanes(in.W), W: in.W,
		}
		switch op {
		case isa.OpVDup, isa.OpVDupX:
			args.Scalar = m.operandU64(in.Src1)
		case isa.OpVExtract:
			args.Scalar = uint64(in.Imm)
		}
		if in.Dst.Class == isa.ClassVec {
			for i, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
				if r.Class == isa.ClassVec && r.N == in.Dst.N {
					args.Merge = [...]*isa.VecVal{args.A, args.B, args.C}[i]
					break
				}
			}
		}
		var res isa.VecVal
		isa.EvalVecALU(op, &args, &res)
		if in.Dst.Class == isa.ClassVec {
			writeVecDst(&res)
		}

	case op == isa.OpLoad || op == isa.OpFLoad:
		addr := m.operandU64(in.Src1) + uint64(in.Imm)
		m.writeScalar(in.Dst, m.mem.Read(addr, in.W))

	case op == isa.OpVLoad:
		lanes := m.operandPred(&in).Limit(m.lanes(in.W))
		addr := m.operandU64(in.Src1) + (m.operandU64(in.Src2)+uint64(in.Imm))*uint64(in.W)
		res := isa.VecVal{W: in.W}
		if lanes > 0 {
			res = isa.NewVec(in.W, lanes)
			for i := 0; i < lanes; i++ {
				res.SetLane(i, m.mem.Read(addr+uint64(i)*uint64(in.W), in.W))
			}
		}
		writeVecDst(&res)

	case op == isa.OpVLoadG:
		// A gather reads at most as many lanes as its destination holds.
		idx := m.operandVec(in.Src2, cons)
		lanes := m.operandPred(&in).Limit(min(idx.N, isa.MaxLanes(in.W)))
		base := m.operandU64(in.Src1)
		res := isa.VecVal{W: in.W}
		if lanes > 0 {
			res = isa.NewVec(in.W, lanes)
			for l := 0; l < lanes; l++ {
				res.SetLane(l, m.mem.Read(base+idx.Lane(l)*uint64(in.W), in.W))
			}
		}
		writeVecDst(&res)

	case op == isa.OpStore || op == isa.OpFStore:
		addr := m.operandU64(in.Src1) + uint64(in.Imm)
		m.mem.Write(addr, in.W, isa.Truncate(in.W, m.operandU64(in.Src3)))
		if m.shadow != nil {
			m.shadow.NoteScalarStore(pc, addr, int(in.W))
		}

	case op == isa.OpVStore:
		data := m.operandVec(in.Src3, cons)
		lanes := m.operandPred(&in).Limit(data.N)
		addr := m.operandU64(in.Src1) + (m.operandU64(in.Src2)+uint64(in.Imm))*uint64(in.W)
		for i := 0; i < lanes; i++ {
			m.mem.Write(addr+uint64(i)*uint64(in.W), in.W, data.Lane(i))
		}
		if m.shadow != nil {
			m.shadow.NoteScalarStore(pc, addr, lanes*int(in.W))
		}

	default:
		return 0, false, fmt.Errorf("funcsim: pc %d: unimplemented op %s", pc, op.Name())
	}

	m.committed++
	m.byKind[op.Kind()]++
	return next, halt, nil
}

// --- streams ---

// configPart applies one OpSCfg µOp; the End part rebuilds the descriptor
// and eagerly generates the whole chunk sequence.
func (m *Machine) configPart(p *isa.StreamCfgPart) error {
	u := p.Stream
	if p.Start {
		s := &stream{u: u, slot: m.nextSlot, configuring: true, kind: p.Kind}
		m.nextSlot++
		// A live predecessor instance is simply shadowed (stream renaming):
		// its shadow bytes stay recorded, as the engine keeps them until the
		// old slot releases.
		m.sat[u] = s
	}
	s := m.sat[u]
	if s == nil || !s.configuring {
		return fmt.Errorf("stream config part for u%d without an open configuration", u)
	}
	s.parts = append(s.parts, p)
	if !p.End {
		return nil
	}
	d, err := isa.RebuildDescriptor(s.parts)
	if err != nil {
		return fmt.Errorf("u%d: %w", u, err)
	}
	s.parts = nil
	s.configuring = false
	s.desc = d
	s.kind = d.Kind
	s.w = d.Width
	return m.generate(s)
}

// originSource adapts the machine's origin iterators to the descriptor
// iterator's OriginSource, mirroring the engine's shadowSource: one value
// per NextOrigin, read directly from memory.
type originSource struct{ m *Machine }

func (o originSource) NextOrigin(u int) (uint64, bool) {
	it := o.m.originIts[u]
	if it == nil {
		return 0, false
	}
	el, ok := it.Next()
	if !ok {
		return 0, false
	}
	o.m.originCum[u]++
	return o.m.mem.Read(el.Addr, o.m.originWs[u]), true
}

// generate walks the descriptor eagerly, packing elements into chunks under
// the engine's rule (close when the chunk is lane-full or the element ends
// dimension 0) and recording every element in the shadow tracker.
func (m *Machine) generate(s *stream) error {
	var src descriptor.OriginSource
	if s.desc.HasIndirect() {
		for _, ou := range s.desc.Origins() {
			os := m.sat[ou]
			if os == nil || os.configuring {
				return fmt.Errorf("u%d: indirect origin u%d not configured", s.u, ou)
			}
			m.originIts[ou] = descriptor.NewIterator(os.desc, nil)
			m.originWs[ou] = os.w
			m.originCum[ou] = 0
		}
		src = originSource{m}
	}
	lanes := arch.LanesFor(m.effVecBytes, s.desc.Width)
	it := descriptor.NewIterator(s.desc, src)
	writes := s.kind == descriptor.Store
	var cur chunk
	for {
		el, ok := it.Next()
		if !ok {
			break
		}
		cur.addrs = append(cur.addrs, el.Addr)
		s.elems++
		if m.shadow != nil {
			m.shadow.Touch(s.u, s.slot, el.Addr, int64(s.w), writes)
		}
		if len(cur.addrs) >= lanes || el.EndsDim(0) {
			cur.end, cur.last = el.End, el.Last
			s.chunks = append(s.chunks, cur)
			cur = chunk{}
		}
	}
	if len(cur.addrs) > 0 {
		// Degenerate tail: the iterator's final element always closes a
		// chunk, but keep the engine's guard for safety.
		cur.end, cur.last = ^uint16(0), true
		s.chunks = append(s.chunks, cur)
	}
	// Origins the generation drained release now, as the engine's
	// engine-consumed advance does once the last origin chunk is popped.
	for _, ou := range s.desc.Origins() {
		os := m.sat[ou]
		if os == nil || os.released || len(os.chunks) == 0 {
			continue
		}
		if m.originCum[ou] >= os.elems {
			last := os.chunks[len(os.chunks)-1]
			os.pos = len(os.chunks)
			os.lastEnd, os.lastLast = last.end, last.last
			m.release(os)
		}
	}
	return nil
}

// consume pops the next chunk of a load stream into dst, reading its
// element data from memory. Past the end it yields the synthetic-end view:
// an absent value, flags unchanged. Consuming the final chunk releases the
// instance (the consume and its commit collapse onto the same program-order
// step).
func (m *Machine) consume(s *stream, dst *isa.VecVal) {
	if s.pos >= len(s.chunks) {
		*dst = isa.VecVal{}
		return
	}
	c := &s.chunks[s.pos]
	s.pos++
	*dst = isa.NewVec(s.w, len(c.addrs))
	for i, a := range c.addrs {
		dst.SetLane(i, m.mem.Read(a, s.w))
	}
	s.lastEnd, s.lastLast = c.end, c.last
	if s.pos == len(s.chunks) {
		m.release(s)
	}
}

// produce fills the next chunk of a store stream and writes it to memory
// (the producing instruction's writeback and the chunk's commit collapse
// onto the same step). Lanes the producer did not supply store zero, as the
// engine's chunk buffers do.
func (m *Machine) produce(s *stream, v *isa.VecVal) {
	if s.pos >= len(s.chunks) {
		return
	}
	c := s.chunks[s.pos]
	s.pos++
	for i, a := range c.addrs {
		var val uint64
		if i < v.N {
			val = v.Lane(i)
		}
		m.mem.Write(a, s.w, val)
	}
	s.lastEnd, s.lastLast = c.end, c.last
	if s.pos == len(s.chunks) {
		m.release(s)
	}
}

// release retires a stream instance: its final flags survive in the
// per-register table and its shadow bytes stop colliding with later
// touches.
func (m *Machine) release(s *stream) {
	if s.released {
		return
	}
	s.released = true
	m.lastFlags[s.u] = flagPair{end: s.lastEnd, last: s.lastLast}
	if m.shadow != nil {
		m.shadow.End(s.slot, s.u)
	}
	if m.sat[s.u] == s {
		m.sat[s.u] = nil
	}
}

// streamFlags reports the end-of-dimension flags a stream branch on u
// observes: the live instance's latest chunk flags, or the released
// predecessor's saved flags (the engine's SpecFlags/LastFlags pair).
func (m *Machine) streamFlags(u int) (uint16, bool) {
	if s := m.sat[u]; s != nil && !s.suspended {
		return s.lastEnd, s.lastLast
	}
	f := m.lastFlags[u]
	return f.end, f.last
}
