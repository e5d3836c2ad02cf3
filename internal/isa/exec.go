package isa

import "repro/internal/arch"

// Operands is the operand record Eval reads: the values of an instruction's
// sources, which each caller reads from its own register file, and the
// machine state a few instructions observe.
type Operands struct {
	// X holds the scalar values of Src1..Src3 (0 for a non-scalar operand).
	X [3]uint64
	// V holds the vector values of Src1..Src3; nil reads as an absent value.
	V [3]*VecVal
	// P is the predicate the instruction reads (see Inst.PredSrc).
	P PredVal
	// VecBytes is the effective vector length ss.setvl granted, and
	// MaxVecBytes the physical width that clamps ss.setvl's grant.
	VecBytes, MaxVecBytes int
	// End and Last are the flags a stream-conditional branch observes: the
	// latest chunk's dimension-end mask and whether it ends the stream.
	End  uint16
	Last bool
}

// Result is an instruction's result: a scalar (integer or FP bits), a
// vector, a predicate, or a branch outcome. Eval writes only the field the
// instruction produces.
type Result struct {
	Val   uint64
	Vec   VecVal
	Pred  PredVal
	Taken bool
}

// noVec is the absent value a nil vector operand reads as.
var noVec VecVal

func (s *Operands) vec(i int) *VecVal {
	if v := s.V[i]; v != nil {
		return v
	}
	return &noVec
}

// PredSrc returns the predicate register the instruction reads: Src1 for
// the predicate branches and pnot, the governing Pred otherwise (None reads
// as all lanes).
func (i *Inst) PredSrc() Reg {
	if i.Src1.Class == ClassPred {
		return i.Src1
	}
	return i.Pred
}

// Eval computes the result of every instruction that is not a memory
// access, a stream configuration or control µOp, a nop or a halt, into out.
// It reports false, leaving out alone, for an op it does not define.
//
// Destructive vector forms merge into the old destination, the source that
// names the destination register: short stream chunks then act as
// false-predicated lanes rather than truncating an accumulator.
func Eval(in *Inst, src *Operands, out *Result) bool {
	op, w := in.Op, in.W
	switch op.Kind() {
	case KindBranch:
		switch op {
		case OpBFirst:
			out.Taken = src.P.Any()
		case OpBNone:
			out.Taken = !src.P.Any()
		case OpSBNotEnd:
			out.Taken = !src.Last
		case OpSBEnd:
			out.Taken = src.Last
		case OpSBDimNotEnd:
			out.Taken = src.End&(1<<uint(in.Imm)) == 0
		case OpSBDimEnd:
			out.Taken = src.End&(1<<uint(in.Imm)) != 0
		default:
			out.Taken = evalCondBranch(op, src.X[0], src.X[1])
		}

	case KindIntALU:
		switch op {
		case OpSSetVL:
			req, max := int(src.X[0]), arch.LanesFor(src.MaxVecBytes, w)
			if req <= 0 || req > max {
				req = max
			}
			out.Val = uint64(req)
		case OpIncVL:
			out.Val = src.X[0] + uint64(arch.LanesFor(src.VecBytes, w))
		case OpGetVL:
			out.Val = uint64(arch.LanesFor(src.VecBytes, w))
		default:
			out.Val = EvalInt(op, src.X[0], src.X[1], in.Imm)
		}

	case KindFPALU:
		out.Val = evalFP(op, w, src.X[0], src.X[1], src.X[2], in.Imm)

	case KindVecALU:
		switch op {
		case OpWhilelt:
			out.Pred = evalWhilelt(src.X[0], src.X[1], arch.LanesFor(src.VecBytes, w))
		case OpPTrue:
			out.Pred = PredVal{Active: arch.LanesFor(src.VecBytes, w)}
		case OpPNot:
			n := arch.LanesFor(src.VecBytes, w)
			out.Pred = PredVal{Active: n - src.P.Limit(n)}
		case OpVFAddV, OpVFMaxV, OpVFMinV:
			out.Vec = NewVec(w, 1)
			out.Vec.SetLane(0, evalVecHoriz(op, w, src.vec(0)))
		case OpVFAddVF, OpVFMaxVF, OpVFMinVF:
			out.Val = evalVecHoriz(op, w, src.vec(0))
		case OpVExtract:
			out.Val = src.vec(0).Lane(int(in.Imm))
		default:
			args := vecArgs{
				A: src.vec(0), B: src.vec(1), C: src.vec(2),
				Scalar: src.X[0], Pred: src.P, Lanes: arch.LanesFor(src.VecBytes, w), W: w,
			}
			if in.Dst.Class == ClassVec {
				for i, r := range [...]Reg{in.Src1, in.Src2, in.Src3} {
					if r.Class == ClassVec && r.N == in.Dst.N {
						args.Merge = src.vec(i)
						break
					}
				}
			}
			evalVecALU(op, &args, &out.Vec)
		}

	default:
		return false
	}
	return true
}

// Addr returns the first byte a load or store accesses: Src1 + Imm for the
// scalar forms, Src1 + (Src2 + Imm)·W for the unit-stride vector forms. A
// gather's lanes each have their own address (LaneAddr).
func (i *Inst) Addr(src *Operands) uint64 {
	if i.Op == OpVLoad || i.Op == OpVStore {
		return src.X[0] + (src.X[1]+uint64(i.Imm))*uint64(i.W)
	}
	return src.X[0] + uint64(i.Imm)
}

// AccessLanes returns how many elements a load or store moves: one for the
// scalar forms; for vload, the predicate's active prefix of the effective
// vector length; for vstore, of the data operand's lanes; for a gather, of
// the index operand's lanes, at most as many as the destination holds.
func (i *Inst) AccessLanes(src *Operands) int {
	switch i.Op {
	case OpVLoad:
		return src.P.Limit(arch.LanesFor(src.VecBytes, i.W))
	case OpVStore:
		return src.P.Limit(src.vec(2).N)
	case OpVLoadG:
		return src.P.Limit(min(src.vec(1).N, MaxLanes(i.W)))
	}
	return 1
}

// LaneAddr returns the address of element l of a load or store: Src1 plus
// index lane l, scaled by W, for a gather; l elements past Addr otherwise.
func (i *Inst) LaneAddr(src *Operands, l int) uint64 {
	if i.Op == OpVLoadG {
		return src.X[0] + src.vec(1).Lane(l)*uint64(i.W)
	}
	return i.Addr(src) + uint64(l)*uint64(i.W)
}

// StoreLane returns element l of a store's data: the scalar Src3 truncated
// to W, or lane l of the vector Src3.
func (i *Inst) StoreLane(src *Operands, l int) uint64 {
	if i.Op == OpVStore {
		return src.vec(2).Lane(l)
	}
	return Truncate(i.W, src.X[2])
}
