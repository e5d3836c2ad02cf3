// Package funcsim is the functional execution tier: a program-order
// interpreter for the simulated ISA that produces final memory, committed
// instruction counts and sanitizer-visible stream accesses — but no cycle
// counts. It exists for the runs where only architectural results matter
// (lint sweeps, fault-oracle baselines, fuzz corpora, correctness CI), at a
// fraction of the detailed model's cost.
//
// The program-order semantics (operand selection, stream consume/produce
// rules, branch-flag snapshots, predication, effective vector length) come
// from internal/interp, which the static cost model runs too; funcsim is its
// concrete domain, in which every value is known: data memory, FP and
// vector values. Stream descriptors are walked through internal/descriptor
// — the Iterator, its chunk packing (NextChunk) and the origin reader
// (OriginReader) the cycle engine uses too — so pattern semantics cannot
// drift between tiers, and stream accesses are shadow-tracked through the
// engine's sanitizer (engine.Shadow) so collision semantics cannot drift
// either. The differential oracle in internal/sim compares the two tiers
// over every kernel, variant and size grid.
package funcsim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/engine"
	"repro/internal/interp"
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

// stream is a stream instance's concrete data: its eagerly generated
// chunks, and the chunk the current instruction consumed.
type stream struct {
	chunks []descriptor.Chunk
	elems  int64
	val    isa.VecVal
}

// Machine interprets one program against a backing store.
type Machine struct {
	vm   interp.Machine[stream]
	cfg  Config
	mem  *mem.Memory
	vecR [isa.NumVecRegs]isa.VecVal

	// src and res are the current instruction's operands and result.
	src isa.Operands
	res isa.Result

	shadow *engine.Shadow

	stepHook func(pc int)
}

// New builds a functional machine over the program and backing store.
func New(cfg Config, p *program.Program, m *mem.Memory) *Machine {
	fm := &Machine{cfg: cfg, mem: m}
	fm.vm.Init(p, cfg.VecBytes, fm)
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
	m.vm.Int[n] = interp.Val{V: v, Known: true}
}

// SetFPReg presets FP register n with a float of width w.
func (m *Machine) SetFPReg(n int, w arch.ElemWidth, v float64) {
	m.vm.FP[n] = interp.Val{V: isa.FloatBits(w, v), Known: true}
}

// IntReg reads integer register n's current value.
func (m *Machine) IntReg(n int) uint64 {
	if n < 0 || n >= isa.NumIntRegs {
		return 0
	}
	return m.vm.Int[n].V
}

// FPReg reads FP register n's current value as a float of width w.
func (m *Machine) FPReg(n int, w arch.ElemWidth) float64 {
	return isa.BitsFloat(w, m.vm.FP[n].V)
}

// SetStepHook installs fn to run immediately before each instruction
// executes, with the register file in its pre-execution state — the probe
// differential oracles (e.g. the absint soundness fuzzer) observe through.
func (m *Machine) SetStepHook(fn func(pc int)) { m.stepHook = fn }

// Committed returns the committed instruction count.
func (m *Machine) Committed() uint64 { return m.vm.Committed }

// CommittedByKind returns the per-kind commit counts.
func (m *Machine) CommittedByKind() [isa.KindCount]uint64 { return m.vm.ByKind }

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
		next, halt, err := m.vm.Step(pc)
		if err != nil {
			return fmt.Errorf("funcsim: %w", err)
		}
		if halt {
			return nil
		}
		pc = next
	}
}

// operandVec reads a vector operand: the chunk the instruction consumed
// when r is bound to a load stream, the register otherwise, and nil for
// another class.
func (m *Machine) operandVec(r isa.Reg, cons []*interp.Stream[stream]) *isa.VecVal {
	if r.Class != isa.ClassVec {
		return nil
	}
	for _, s := range cons {
		if s.U == int(r.N) {
			return &s.X.val
		}
	}
	return &m.vecR[r.N]
}

// Exec performs the loads and stores, and has isa.Eval compute the FP and
// vector instructions' results.
func (m *Machine) Exec(pc int, in *isa.Inst, cons []*interp.Stream[stream], prod *interp.Stream[stream]) error {
	src, res := &m.src, &m.res
	m.vm.Operands(in, src)
	for i, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
		src.V[i] = m.operandVec(r, cons)
	}
	switch in.Op {
	case isa.OpLoad, isa.OpFLoad:
		res.Val = m.mem.Read(in.Addr(src), in.W)

	case isa.OpVLoad, isa.OpVLoadG:
		res.Vec = isa.VecVal{W: in.W}
		if n := in.AccessLanes(src); n > 0 {
			res.Vec = isa.NewVec(in.W, n)
			for l := range n {
				res.Vec.SetLane(l, m.mem.Read(in.LaneAddr(src, l), in.W))
			}
		}

	case isa.OpStore, isa.OpFStore, isa.OpVStore:
		n := in.AccessLanes(src)
		for l := range n {
			m.mem.Write(in.LaneAddr(src, l), in.W, in.StoreLane(src, l))
		}
		if m.shadow != nil {
			m.shadow.NoteScalarStore(pc, in.Addr(src), n*int(in.W))
		}
		return nil

	default:
		if !isa.Eval(in, src, res) {
			return fmt.Errorf("pc %d: unimplemented op %s", pc, in.Op.Name())
		}
	}
	// A vector result goes to the output stream when the destination is
	// one, to the register otherwise.
	switch {
	case in.Dst.Class != isa.ClassVec:
		m.vm.SetReg(in.Dst, interp.Val{V: res.Val, Known: true})
	case prod != nil:
		m.produce(prod, &res.Vec)
	default:
		m.vecR[in.Dst.N] = res.Vec
	}
	return nil
}

// --- streams ---

// Generate walks the descriptor eagerly, chunk by chunk as the engine
// packs them, recording every element in the shadow tracker. Indirect
// modifiers read origin values through the same origin reader the engine
// uses.
func (m *Machine) Generate(s *interp.Stream[stream]) error {
	origins := descriptor.NewOriginReader(m.mem.Read)
	ous := s.Desc.Origins()
	for _, ou := range ous {
		origins.Add(ou, m.vm.Sat[ou].Desc)
	}
	lanes := m.vm.Lanes(s.W)
	it := descriptor.NewIterator(s.Desc, origins)
	writes := s.Kind == descriptor.Store
	x := &s.X
	for {
		var c descriptor.Chunk
		if !it.NextChunk(lanes, &c) {
			break
		}
		if m.shadow != nil {
			for _, a := range c.Addrs {
				m.shadow.Touch(s.U, s.ID, a, int64(s.W), writes)
			}
		}
		x.elems += int64(len(c.Addrs))
		x.chunks = append(x.chunks, c)
	}
	s.Chunks = int64(len(x.chunks))
	// Origins the generation drained release now.
	for i, n := range origins.Counts() {
		if os := m.vm.Sat[ous[i]]; os != nil && n >= os.X.elems {
			m.vm.Drain(os, os.Chunks)
		}
	}
	return nil
}

// FlagAt reports chunk i's closing flags.
func (m *Machine) FlagAt(s *interp.Stream[stream], i int64) (uint16, bool) {
	c := &s.X.chunks[i]
	return c.End, c.Last
}

// Consume reads the element data of a load stream's next chunk from memory
// into the stream's val. Past the end it yields the synthetic-end view: an
// absent value.
func (m *Machine) Consume(s *interp.Stream[stream]) {
	if s.Pos >= s.Chunks {
		s.X.val = isa.VecVal{}
		return
	}
	c := &s.X.chunks[s.Pos]
	s.X.val = isa.NewVec(s.W, len(c.Addrs))
	for i, a := range c.Addrs {
		s.X.val.SetLane(i, m.mem.Read(a, s.W))
	}
}

// produce writes v to memory as a store stream's next chunk (the producing
// instruction's writeback and the chunk's commit collapse onto the same
// step). Lanes the producer did not supply store zero, as the engine's
// chunk buffers do.
func (m *Machine) produce(s *interp.Stream[stream], v *isa.VecVal) {
	if s.Pos >= s.Chunks {
		return
	}
	for i, a := range s.X.chunks[s.Pos].Addrs {
		var val uint64
		if i < v.N {
			val = v.Lane(i)
		}
		m.mem.Write(a, s.W, val)
	}
}

// Released ends the instance's shadow tracking, so its bytes stop colliding
// with later touches, and drops its chunks, which nothing reads after a
// release (the machine keeps every instance in All).
func (m *Machine) Released(s *interp.Stream[stream]) {
	if m.shadow != nil {
		m.shadow.End(s.ID, s.U)
	}
	s.X.chunks = nil
}
