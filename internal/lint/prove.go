package lint

import (
	"repro/internal/absint"
	"repro/internal/arch"
	"repro/internal/isa"
)

// This file bounds the bytes a store writes for the dependence analyzer,
// from the one value analysis, the abstract interpreter (internal/absint).
// A base register — and for vstore the index — holding a single value
// resolves the store's range exactly. A finite interval still bounds the
// range, as loop-carried addresses (an induction variable clamped by a
// stream-derived trip count) do; such a range is used only to *prove
// disjointness*: an overlapping interval range never produces a hazard,
// because the true store address is one point somewhere in the range.

// valueRanges runs the abstract interpreter over the program on first use,
// seeded with the known entry-register values.
func (c *checker) valueRanges() *absint.Result {
	if c.values == nil {
		c.values = absint.Analyze(c.p, absint.Options{
			Entry:    c.opts.EntryIntVals,
			VecBytes: c.opts.VecBytes,
		})
	}
	return c.values
}

// proveAddrMax bounds interval store addresses: ranges reaching this high are
// treated as unresolved so the int64 byte-range arithmetic below cannot wrap.
const proveAddrMax = uint64(1) << 62

// storeRange bounds the byte range [lo, hi) the store instruction at pc can
// write. resolved means every address operand holds a single value; proved
// means they only lie in finite intervals. Neither holds when the address
// is unbounded or is per-lane data (vstoreg and friends). Vector stores span
// the architected maximum extent, as their effective length is runtime
// state, so they can be proven disjoint but never exactly overlapping.
func (c *checker) storeRange(pc int, in *isa.Inst) (lo, hi int64, resolved, proved bool) {
	r := c.valueRanges()
	if in.Src1.Class != isa.ClassInt {
		return 0, 0, false, false
	}
	base, idx := r.At(pc, int(in.Src1.N)), absint.Point(0)
	scale, span := int64(1), int64(in.W)
	switch in.Op {
	case isa.OpStore, isa.OpFStore:
	case isa.OpVStore:
		if in.Src2.Class != isa.ClassInt {
			return 0, 0, false, false
		}
		idx = r.At(pc, int(in.Src2.N))
		scale, span = int64(in.W), int64(arch.MaxVecBytes)
	default:
		return 0, 0, false, false
	}
	lo = int64(base.Lo) + (int64(idx.Lo)+in.Imm)*scale
	hi = int64(base.Hi) + (int64(idx.Hi)+in.Imm)*scale + span
	if base.IsPoint() && idx.IsPoint() {
		return lo, hi, true, false
	}
	if base.Hi >= proveAddrMax || idx.Hi >= proveAddrMax {
		return 0, 0, false, false
	}
	return lo, hi, false, true
}
