package cost

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/program"
)

// static is the cost model's domain over internal/interp's program-order
// stepper: scalar values are known or unknown, and there is no data memory,
// so loads produce unknowns and control flow must be resolvable from
// register arguments and descriptor structure alone. A stream instance's
// chunk structure is its statically derived work instead of materialized
// chunks.
type static struct {
	m          interp.Machine[work]
	walkBudget int64

	readLines  map[uint64]struct{}
	writeLines map[uint64]struct{}
	// writesUnknown poisons the read-only line classification: some store's
	// target lines could not be bounded, so no line can be proven read-only.
	writesUnknown bool
	unknownLoads  int // loads whose lines were skipped (footprint under-approximated)

	// bailMsg is the stepper's first error: the instructions from there on
	// are unresolved, and the tallies are the exactly resolved prefix.
	bailed  bool
	bailMsg string
	diags   []string
}

// work is a stream instance's static data.
type work struct {
	w *streamWork
	// drained counts origin elements consumed by dependent generations (the
	// engine commits origin chunks as the dependent walk settles them).
	drained int64
}

func newStatic(p *program.Program, vecBytes int, walkBudget int64) *static {
	a := &static{
		walkBudget: walkBudget,
		readLines:  map[uint64]struct{}{},
		writeLines: map[uint64]struct{}{},
	}
	a.m.Init(p, vecBytes, a)
	// FP values are untracked: they never reach control flow.
	a.m.FP = [isa.NumFPRegs]interp.Val{}
	return a
}

// run steps from pc 0 until halt, the first error, or the step budget. The
// committed/by-kind tallies advance only for instructions whose execution
// is fully resolved, so they are exact on success and an exact prefix
// (hence a sound lower bound) on bail.
func (a *static) run(maxSteps int64) {
	pc := 0
	for n := int64(0); n < maxSteps; n++ {
		next, halt, err := a.m.Step(pc)
		if err != nil {
			a.bailed, a.bailMsg = true, err.Error()
			return
		}
		if halt {
			return
		}
		pc = next
	}
	a.bailed = true
	a.bailMsg = fmt.Sprintf("pc %d: interpreter step budget (%d) exhausted", pc, maxSteps)
}

// Exec records the line footprints of loads and stores whose addresses are
// known; every FP or vector value and every loaded value is unknown.
func (a *static) Exec(pc int, in *isa.Inst, _ []*interp.Stream[work], _ *interp.Stream[work]) error {
	m := &a.m
	op := in.Op
	switch {
	case op == isa.OpVFAddV || op == isa.OpVFMaxV || op == isa.OpVFMinV:
		// A vector result only.
	case op.Kind() == isa.KindFPALU || op.Kind() == isa.KindVecALU:
		m.SetReg(in.Dst, interp.Val{})

	case op == isa.OpLoad || op == isa.OpFLoad:
		if base := m.Operand(in.Src1); base.Known {
			a.readLines[arch.LineOf(base.V+uint64(in.Imm))] = struct{}{}
		} else {
			a.unknownLoads++
		}
		m.SetReg(in.Dst, interp.Val{})

	case op == isa.OpVLoad:
		base, idx, p := m.Operand(in.Src1), m.Operand(in.Src2), m.PredReg(in.Pred)
		if base.Known && idx.Known && p.Known {
			addr := base.V + (idx.V+uint64(in.Imm))*uint64(in.W)
			n := p.P.Limit(m.Lanes(in.W))
			for i := 0; i < n; i++ {
				a.readLines[arch.LineOf(addr+uint64(i)*uint64(in.W))] = struct{}{}
			}
		} else {
			a.unknownLoads++
		}

	case op == isa.OpVLoadG:
		// Gather indices come from vector data the analyzer does not track:
		// the read footprint is under-approximated, which keeps the DRAM
		// bound sound.
		a.unknownLoads++

	case op == isa.OpStore || op == isa.OpFStore:
		if base := m.Operand(in.Src1); base.Known {
			a.noteWriteSpan(base.V+uint64(in.Imm), int(in.W))
		} else {
			a.writesUnknown = true
		}

	case op == isa.OpVStore:
		base, idx := m.Operand(in.Src1), m.Operand(in.Src2)
		if base.Known && idx.Known {
			n := m.Lanes(in.W)
			if p := m.PredReg(in.Pred); p.Known {
				n = p.P.Limit(n)
			}
			addr := base.V + (idx.V+uint64(in.Imm))*uint64(in.W)
			a.noteWriteSpan(addr, n*int(in.W))
		} else {
			a.writesUnknown = true
		}

	default:
		return fmt.Errorf("pc %d: unmodeled op %s", pc, op.Name())
	}
	return nil
}

// noteWriteSpan over-approximates a store's touched lines (including a
// straddled final line), as the read-only classification requires.
func (a *static) noteWriteSpan(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	first := arch.LineOf(addr)
	last := arch.LineOf(addr + uint64(bytes) - 1)
	for l := first; l <= last; l += arch.LineSize {
		a.writeLines[l] = struct{}{}
	}
}

// Generate derives the instance's statically known work, as the functional
// tier generates eagerly: origin streams supply element counts (their values
// are irrelevant without Size-target indirection), and origins a full
// generation drains release here. An inexact count leaves the position of
// the stream, and of the origins it partially drains, untracked: their
// flags and traffic degrade to intervals, never to a guess.
func (a *static) Generate(s *interp.Stream[work]) error {
	originElems := map[int]int64{}
	var origins []*interp.Stream[work]
	if s.Desc.HasIndirect() {
		for _, ou := range s.Desc.Origins() {
			os := a.m.Sat[ou]
			origins = append(origins, os)
			if os.X.w.exact {
				originElems[ou] = os.X.w.elems
			}
		}
	}
	w := computeWork(s.Desc, a.m.Lanes(s.W), originElems, a.walkBudget)
	s.X.w = w
	if !w.exact {
		s.Chunks, s.Flags = -1, interp.Flags{}
		a.diags = append(a.diags, fmt.Sprintf("u%d: %s", s.U, w.note))
		for _, os := range origins {
			os.Chunks, os.Flags = -1, interp.Flags{}
		}
		return nil
	}
	s.Chunks = w.chunks
	for _, os := range origins {
		used := w.originUsed[os.U]
		os.X.drained = max(os.X.drained, used)
		if ow := os.X.w; ow.exact && used >= ow.elems {
			a.m.Drain(os, ow.chunks)
		}
	}
	return nil
}

// FlagAt reports chunk i's flags from the derived chunk structure.
func (a *static) FlagAt(s *interp.Stream[work], i int64) (uint16, bool) { return s.X.w.flagAt(i) }

// Consume loads nothing: chunk data is not tracked.
func (a *static) Consume(*interp.Stream[work]) {}

// Released needs no bookkeeping beyond the machine's.
func (a *static) Released(*interp.Stream[work]) {}
