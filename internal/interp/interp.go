// Package interp is the program-order semantics of the simulated ISA, shared
// by the functional tier (internal/funcsim) and the static cost model
// (internal/cost). It owns everything the two runs do alike: the scalar and
// predicate register files, the effective vector length, the stream table
// and each stream instance's lifecycle (configuration, consume/produce
// positions, end-of-dimension flags, release), control flow, and commit
// counting. Every non-memory result comes from isa.Eval; the stepper has it
// evaluate the branches and the integer, vector-length and predicate
// instructions.
// A Domain supplies the rest: how a stream's chunks are derived, what a
// consumed chunk holds, and the FP, vector, load and store instructions.
//
// Scalar registers hold maybe-known values. The functional tier is the
// domain in which every value is known; the cost model's loads return
// unknowns, and an unknown value that control flow needs stops the run with
// an error. The shared code branches only on whether a value is known.
package interp

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// Val is a scalar register value, or unknown when Known is false.
type Val struct {
	V     uint64
	Known bool
}

// Pred is a predicate register value, or unknown when Known is false.
type Pred struct {
	P     isa.PredVal
	Known bool
}

// Flags is the end-of-dimension flag pair a stream branch observes: the
// closing element's dimension-end mask and whether it ends the stream.
type Flags struct {
	End   uint16
	Last  bool
	Known bool
}

// Stream is one configured stream instance (the analogue of an engine
// stream-table slot).
type Stream[X any] struct {
	U    int
	ID   int // configuration order over the whole run, unique per instance
	Kind descriptor.Kind
	W    arch.ElemWidth
	Desc *descriptor.Descriptor

	Configuring bool
	Suspended   bool
	Released    bool

	// Pos is the next chunk to consume (loads) or fill (stores) out of
	// Chunks; Chunks < 0 means the position is not tracked, so the flags
	// are unknown.
	Pos, Chunks int64
	// Flags of the most recently delivered chunk, which a branch on a live
	// instance observes.
	Flags Flags

	// X is the domain's per-instance data.
	X X

	parts []*isa.StreamCfgPart
}

// Domain supplies the value-specific half of the semantics.
type Domain[X any] interface {
	// Generate derives the chunks of s, whose configuration just closed:
	// it sets s.Chunks and drains (Machine.Drain) the origin streams the
	// generation consumes wholly. Every origin is configured.
	Generate(s *Stream[X]) error
	// FlagAt reports the flags of chunk i of s, for 0 <= i < s.Chunks.
	FlagAt(s *Stream[X], i int64) (end uint16, last bool)
	// Consume loads the data of chunk s.Pos of a load stream for the
	// current instruction, before the machine advances past it. A position
	// at or past s.Chunks reads the synthetic end: an absent value.
	Consume(s *Stream[X])
	// Released runs when s retires.
	Released(s *Stream[X])
	// Exec executes an FP, vector, load or store instruction at pc. cons
	// holds the load streams the instruction consumed, each once, in
	// operand order; prod, when non-nil, is the store stream that receives
	// the instruction's vector result in place of its destination register
	// (its chunk s.Pos; the machine advances it afterwards).
	Exec(pc int, in *isa.Inst, cons []*Stream[X], prod *Stream[X]) error
}

// Machine is the program-order state of one run.
type Machine[X any] struct {
	Prog *program.Program
	D    Domain[X]

	Int  [isa.NumIntRegs]Val
	FP   [isa.NumFPRegs]Val
	Pred [isa.NumPredRegs]Pred

	// VecBytes is the physical vector width; EffVecBytes the width
	// ss.setvl grants.
	VecBytes, EffVecBytes int

	Sat       [isa.NumVecRegs]*Stream[X]
	LastFlags [isa.NumVecRegs]Flags
	// All holds every instance in configuration order.
	All []*Stream[X]

	Committed uint64
	ByKind    [isa.KindCount]uint64

	// consBuf backs the current instruction's consumed list (Step is not
	// reentrant).
	consBuf [3]*Stream[X]
}

// Init resets m to the entry state over p: every register known and zero
// (p0 all lanes), the full vector width granted.
func (m *Machine[X]) Init(p *program.Program, vecBytes int, d Domain[X]) {
	*m = Machine[X]{Prog: p, D: d, VecBytes: vecBytes, EffVecBytes: vecBytes}
	for i := range m.Int {
		m.Int[i].Known = true
	}
	for i := range m.FP {
		m.FP[i].Known = true
	}
	for i := range m.Pred {
		m.Pred[i].Known = true
	}
	m.Pred[0].P = isa.AllLanes
	for i := range m.LastFlags {
		m.LastFlags[i].Known = true
	}
}

// Lanes is the effective lane count for width w.
func (m *Machine[X]) Lanes(w arch.ElemWidth) int { return arch.LanesFor(m.EffVecBytes, w) }

// Operand reads a scalar operand; a register of another class reads a known
// zero.
func (m *Machine[X]) Operand(r isa.Reg) Val {
	switch r.Class {
	case isa.ClassInt:
		return m.Int[r.N]
	case isa.ClassFP:
		return m.FP[r.N]
	}
	return Val{Known: true}
}

// SetReg writes a scalar destination (x0 stays zero; other classes are
// ignored).
func (m *Machine[X]) SetReg(r isa.Reg, v Val) {
	switch r.Class {
	case isa.ClassInt:
		if r.N != 0 {
			m.Int[r.N] = v
		}
	case isa.ClassFP:
		m.FP[r.N] = v
	}
}

// PredReg reads a predicate operand; a register of another class (an
// unpredicated instruction's None) reads all lanes.
func (m *Machine[X]) PredReg(r isa.Reg) Pred {
	if r.Class != isa.ClassPred {
		return Pred{P: isa.AllLanes, Known: true}
	}
	return m.Pred[r.N]
}

func known(v uint64) Val { return Val{V: v, Known: true} }

// Operands fills the scalar, predicate and vector-length fields of src for
// in, and reports whether every value it read is known. The vector
// operands are the domain's to fill.
func (m *Machine[X]) Operands(in *isa.Inst, src *isa.Operands) bool {
	ok := true
	for i, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
		v := m.Operand(r)
		src.X[i], ok = v.V, ok && v.Known
	}
	p := m.PredReg(in.PredSrc())
	src.P = p.P
	src.VecBytes, src.MaxVecBytes = m.EffVecBytes, m.VecBytes
	return ok && p.Known
}

// unknownMsg says why a branch or ss.setvl cannot proceed on an unknown
// operand.
func unknownMsg(in *isa.Inst) string {
	switch {
	case in.Op.IsStreamBranch():
		return fmt.Sprintf("stream branch on u%d: flags are data-dependent", in.Src1.N)
	case in.Op == isa.OpBFirst || in.Op == isa.OpBNone:
		return "predicate branch on a data-dependent predicate"
	case in.Op == isa.OpSSetVL:
		return "ss.setvl with a data-dependent request"
	}
	return "conditional branch on a data-dependent value"
}

// Step executes the instruction at pc: stream consumes for its vector
// sources, its evaluation and its commit, collapsed into one program-order
// step. An operand that is unknown where control flow needs it is an error,
// as is a malformed stream configuration or a stream used while it is still
// being configured; on error nothing is committed.
func (m *Machine[X]) Step(pc int) (next int, halt bool, err error) {
	in := m.Prog.At(pc)
	op := in.Op
	next = pc + 1

	// Stream consumes: one chunk per distinct live load-stream source,
	// substituted for all matching occurrences (the rename-stage rule).
	cons := m.consBuf[:0]
	var prod *Stream[X]
	if op.HasDataOperands() {
		for _, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
			if r.Class != isa.ClassVec {
				continue
			}
			s := m.Sat[r.N]
			if s == nil || s.Suspended || s.Kind != descriptor.Load {
				continue
			}
			if s.Configuring {
				return 0, false, fmt.Errorf("pc %d: u%d consumed while still configuring", pc, r.N)
			}
			if slices.Contains(cons, s) {
				continue
			}
			cons = append(cons, s)
			m.D.Consume(s)
			m.Advance(s)
		}
		if in.Dst.Class == isa.ClassVec {
			if s := m.Sat[in.Dst.N]; s != nil && !s.Suspended && s.Kind == descriptor.Store {
				if s.Configuring {
					return 0, false, fmt.Errorf("pc %d: u%d produced while still configuring", pc, in.Dst.N)
				}
				if writesVec(op) {
					prod = s
				}
			}
		}
	}

	switch {
	case op == isa.OpSCfg:
		if err := m.configPart(in.Cfg); err != nil {
			return 0, false, fmt.Errorf("pc %d: %w", pc, err)
		}

	case op == isa.OpNop:
	case op == isa.OpHalt:
		halt = true

	case op == isa.OpSSuspend:
		if s := m.Sat[in.Dst.N]; s != nil {
			s.Suspended = true
		}
	case op == isa.OpSResume:
		if s := m.Sat[in.Dst.N]; s != nil {
			s.Suspended = false
		}
	case op == isa.OpSStop:
		if s := m.Sat[in.Dst.N]; s != nil {
			m.Release(s)
		}
	case op == isa.OpSForce:
		// Timing-only hint in the detailed model; architecturally a no-op.

	case op.IsBranch() || op.Kind() == isa.KindIntALU || op == isa.OpWhilelt || op == isa.OpPTrue || op == isa.OpPNot:
		var src isa.Operands
		ok := m.Operands(in, &src)
		if op.IsStreamBranch() {
			f := m.streamFlags(int(in.Src1.N))
			src.End, src.Last, ok = f.End, f.Last, f.Known
		}
		if !ok {
			// Control flow needs the value; a destination becomes unknown.
			switch {
			case op.IsBranch() || op == isa.OpSSetVL:
				return 0, false, fmt.Errorf("pc %d: %s", pc, unknownMsg(in))
			case in.Dst.Class == isa.ClassPred:
				m.Pred[in.Dst.N] = Pred{}
			default:
				m.SetReg(in.Dst, Val{})
			}
			break
		}
		var res isa.Result
		isa.Eval(in, &src, &res) // defines every op of this case
		switch {
		case op.IsBranch():
			if res.Taken {
				next = in.Target
			}
		case in.Dst.Class == isa.ClassPred:
			m.Pred[in.Dst.N] = Pred{P: res.Pred, Known: true}
		default:
			m.SetReg(in.Dst, known(res.Val))
			if op == isa.OpSSetVL {
				m.EffVecBytes = int(res.Val) * int(in.W)
			}
		}

	default:
		if err := m.D.Exec(pc, in, cons, prod); err != nil {
			return 0, false, err
		}
		if prod != nil {
			m.Advance(prod)
		}
	}

	m.Committed++
	m.ByKind[op.Kind()]++
	return next, halt, nil
}

// writesVec reports whether op writes its vector destination, so that a
// store stream bound to the destination receives a chunk: vector loads and
// the vector ALU operations with a vector result.
func writesVec(op isa.Op) bool {
	switch op {
	case isa.OpVLoad, isa.OpVLoadG:
		return true
	case isa.OpVFAddVF, isa.OpVFMaxVF, isa.OpVFMinVF, isa.OpWhilelt, isa.OpPTrue, isa.OpPNot:
		return false
	}
	return op.Kind() == isa.KindVecALU
}

// configPart applies one ss.cfg µOp; the End part rebuilds the descriptor
// and has the domain generate the instance's chunks.
func (m *Machine[X]) configPart(p *isa.StreamCfgPart) error {
	u := p.Stream
	if p.Start {
		// A live predecessor instance is simply shadowed (stream renaming).
		s := &Stream[X]{U: u, ID: len(m.All), Kind: p.Kind, Configuring: true, Flags: Flags{Known: true}}
		m.Sat[u] = s
		m.All = append(m.All, s)
	}
	s := m.Sat[u]
	if s == nil || !s.Configuring {
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
	s.parts, s.Configuring = nil, false
	s.Desc, s.Kind, s.W = d, d.Kind, d.Width
	if d.HasIndirect() {
		for _, ou := range d.Origins() {
			if os := m.Sat[ou]; os == nil || os.Configuring {
				return fmt.Errorf("u%d: indirect origin u%d not configured", u, ou)
			}
		}
	}
	return m.D.Generate(s)
}

// Advance moves s past its next chunk: it snapshots that chunk's flags and
// releases the instance on its final chunk. Past the end nothing changes;
// an untracked position leaves the flags unknown.
func (m *Machine[X]) Advance(s *Stream[X]) {
	if s.Chunks < 0 {
		s.Flags = Flags{}
		return
	}
	if s.Pos >= s.Chunks {
		return
	}
	end, last := m.D.FlagAt(s, s.Pos)
	s.Pos++
	s.Flags = Flags{End: end, Last: last, Known: true}
	if s.Pos == s.Chunks {
		m.Release(s)
	}
}

// Drain marks all chunks chunks of s delivered and releases it, as the
// engine's engine-consumed advance does once a dependent stream's
// generation pops an origin's last chunk. The count comes from the caller
// because an instance whose position is not tracked can still be drained.
func (m *Machine[X]) Drain(s *Stream[X], chunks int64) {
	if s.Released || chunks <= 0 {
		return
	}
	end, last := m.D.FlagAt(s, chunks-1)
	s.Pos = chunks
	s.Flags = Flags{End: end, Last: last, Known: true}
	m.Release(s)
}

// Release retires s: its flags survive in LastFlags for later branches on
// its register.
func (m *Machine[X]) Release(s *Stream[X]) {
	if s.Released {
		return
	}
	s.Released = true
	m.LastFlags[s.U] = s.Flags
	m.D.Released(s)
	if m.Sat[s.U] == s {
		m.Sat[s.U] = nil
	}
}

// streamFlags reports the flags a stream branch on u observes: the live
// instance's latest chunk flags, or the released predecessor's saved flags
// (the engine's SpecFlags/LastFlags pair).
func (m *Machine[X]) streamFlags(u int) Flags {
	if s := m.Sat[u]; s != nil && !s.Suspended {
		return s.Flags
	}
	return m.LastFlags[u]
}
