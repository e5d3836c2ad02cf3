package isa

// Operand introspection for static analysis. The distinction these helpers
// draw is between *data* operands — registers whose value the instruction
// reads or writes — and *stream* operands: vector registers named only to
// select the stream they are bound to (configuration, control and
// stream-conditional branches). A stream-control instruction carries the
// stream register in Dst or Src1 but neither reads nor writes register data.

// IsStreamCtl reports whether the opcode is a stream configuration or
// control instruction whose Dst names a stream rather than a written
// register (ss.cfg, ss.suspend, ss.resume, ss.stop, ss.force).
func (o Op) IsStreamCtl() bool {
	switch o {
	case OpSCfg, OpSSuspend, OpSResume, OpSStop, OpSForce:
		return true
	}
	return false
}

// HasDataOperands reports whether the instruction's register fields are
// data operands. Stream configuration/control instructions and stream
// branches name streams in them, not register values.
func (o Op) HasDataOperands() bool {
	switch o {
	case OpSCfg, OpSSuspend, OpSResume, OpSStop, OpSForce,
		OpSBNotEnd, OpSBEnd, OpSBDimNotEnd, OpSBDimEnd:
		return false
	}
	return true
}

// DataDst returns the register the instruction writes as data, or None when
// it has no destination or its Dst is a stream-control pseudo-operand.
func (i *Inst) DataDst() Reg {
	if i.Op.IsStreamCtl() {
		return None
	}
	return i.Dst
}

// DataSrcs appends the registers whose *values* the instruction reads to
// dst. The stream-status operand of a stream-conditional branch is excluded
// (use StreamOperand for it); predicate operands are included.
func (i *Inst) DataSrcs(dst []Reg) []Reg {
	if i.Op.IsStreamCtl() {
		return dst
	}
	if i.Op.IsStreamBranch() {
		// Src1 selects the stream whose end state is tested; no registers
		// are read as data.
		return dst
	}
	return i.Srcs(dst)
}

// StreamOperand returns the stream register number an instruction names as
// a non-data operand: the Dst of a configuration or control instruction, or
// the Src1 of a stream-conditional branch. ok is false for every other
// instruction.
func (i *Inst) StreamOperand() (u int, ok bool) {
	switch {
	case i.Op.IsStreamCtl():
		return int(i.Dst.N), true
	case i.Op.IsStreamBranch():
		return int(i.Src1.N), true
	}
	return 0, false
}

// SForce forces one element transfer on suspended stream u (ss.force,
// paper §III-B Advanced control).
func SForce(u int) Inst { return Inst{Op: OpSForce, Dst: V(u)} }
