package isa

import (
	"fmt"
	"math"

	"repro/internal/arch"
)

// EvalInt computes a scalar integer ALU result.
func EvalInt(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case OpNop, OpHalt:
		return 0
	case OpLi:
		return uint64(imm)
	case OpMv:
		return a
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return ^uint64(0)
		}
		return uint64(int64(a) / int64(b))
	case OpRem:
		if b == 0 {
			return a
		}
		return uint64(int64(a) % int64(b))
	case OpAddI:
		return a + uint64(imm)
	case OpSllI:
		return a << uint(imm&63)
	case OpSrlI:
		return a >> uint(imm&63)
	case OpAndI:
		return a & uint64(imm)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpSlt:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case OpSltI:
		if int64(a) < imm {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("EvalInt: not an integer op: %s", op.Name()))
}

// evalCondBranch decides a scalar conditional branch.
func evalCondBranch(op Op, a, b uint64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return int64(a) < int64(b)
	case OpBge:
		return int64(a) >= int64(b)
	case OpJ:
		return true
	}
	panic(fmt.Sprintf("evalCondBranch: not a scalar branch: %s", op.Name()))
}

// evalFP computes a scalar floating-point result (bits in, bits out; the
// precision is selected by w).
func evalFP(op Op, w arch.ElemWidth, a, b, c uint64, imm int64) uint64 {
	fa, fb, fc := bitsToFloat(w, a), bitsToFloat(w, b), bitsToFloat(w, c)
	switch op {
	case OpFLi:
		return uint64(imm)
	case OpFMv:
		return a
	case OpFAdd:
		return floatToBits(w, fa+fb)
	case OpFSub:
		return floatToBits(w, fa-fb)
	case OpFMul:
		return floatToBits(w, fa*fb)
	case OpFDiv:
		return floatToBits(w, fa/fb)
	case OpFSqrt:
		return floatToBits(w, math.Sqrt(fa))
	case OpFMadd:
		if w == arch.W4 {
			return floatToBits(w, float64(float32(fa)*float32(fb)+float32(fc)))
		}
		return floatToBits(w, fa*fb+fc)
	case OpFMax:
		return floatToBits(w, math.Max(fa, fb))
	case OpFMin:
		return floatToBits(w, math.Min(fa, fb))
	case OpFAbs:
		return floatToBits(w, math.Abs(fa))
	case OpFNeg:
		return floatToBits(w, -fa)
	case OpFLt:
		if fa < fb {
			return 1
		}
		return 0
	case OpFLe:
		if fa <= fb {
			return 1
		}
		return 0
	case OpItoF:
		return floatToBits(w, float64(int64(a)))
	case OpFtoI:
		return uint64(int64(fa))
	}
	panic(fmt.Sprintf("evalFP: not an FP op: %s", op.Name()))
}

// vecArgs carries the operand values of a vector ALU operation. The
// operands point into the caller's register file; the evaluation only reads
// them.
type vecArgs struct {
	A, B, C *VecVal
	Scalar  uint64 // FP or integer scalar operand bits (dup)
	Pred    PredVal
	Lanes   int // architected lane count for the operating width
	W       arch.ElemWidth
	// Merge, when non-nil, supplies the old destination value for
	// destructive operations: result lanes beyond the active count keep its
	// lanes (predicate-merging semantics; this is what makes UVE's
	// automatic out-of-bounds lane disabling act as an identity in
	// accumulator patterns like vectormax u5,u5,u0 — paper F5).
	Merge *VecVal
}

// laneCount determines the number of result lanes: the predicate limit
// intersected with every present vector operand's valid lane count.
func (a *vecArgs) laneCount(x, y, z *VecVal) int {
	n := a.Pred.Limit(a.Lanes)
	for _, v := range [...]*VecVal{x, y, z} {
		if v != nil && v.present && v.N < n {
			n = v.N
		}
	}
	if n < 0 {
		n = 0
	}
	return n
}

// frame prepares out for n computed lanes: a fresh vector, or a copy of the
// merge operand when it has lanes beyond n to keep.
func (a *vecArgs) frame(out *VecVal, n int) {
	if a.Merge == nil || a.Merge.N <= n {
		*out = NewVec(a.W, n)
		return
	}
	*out = *a.Merge
	out.present = true
}

// fbin computes a lane-wise floating-point binary operation of A and B.
func (a *vecArgs) fbin(out *VecVal, f func(x, y float64) float64) {
	n := a.laneCount(a.A, a.B, nil)
	a.frame(out, n)
	for i := 0; i < n; i++ {
		out.SetLane(i, floatToBits(a.W, f(a.A.F(i), a.B.F(i))))
	}
}

// fma computes the fused forms lane-wise: A·B + C, in float32 for 4-byte
// lanes.
func (a *vecArgs) fma(out *VecVal) {
	n := a.laneCount(a.A, a.B, a.C)
	a.frame(out, n)
	for i := 0; i < n; i++ {
		if a.W == arch.W4 {
			out.SetLane(i, floatToBits(a.W, float64(float32(a.A.F(i))*float32(a.B.F(i))+float32(a.C.F(i)))))
		} else {
			out.SetLane(i, floatToBits(a.W, a.A.F(i)*a.B.F(i)+a.C.F(i)))
		}
	}
}

// The float32 fast path computes add, sub, mul and the fused forms on the
// packed uint32 lanes, with no closure and no float64 round trip, when the
// op width, every operand and the output are all 4-byte. It matches fbin and
// fma bit for bit: float64 carries more than 2·24+2 significand bits, so
// +, − or × of two float32 values computed in float64 and rounded once is
// the float32 result, and the fused forms are the same float32 expression.

// f32Lanes reports whether n computed lanes can take the float32 fast path:
// the op width and the framed output are 4-byte, and each present operand
// is 4-byte and holds the n lanes read (the generic path reads a lane past
// an operand's count as 0).
func (a *vecArgs) f32Lanes(n int, x, y, z *VecVal) bool {
	if a.W != arch.W4 || a.Merge != nil && a.Merge.N > n && a.Merge.W != arch.W4 {
		return false
	}
	for _, v := range [...]*VecVal{x, y, z} {
		if v != nil && (v.W != arch.W4 || v.N < n) {
			return false
		}
	}
	return true
}

// f32 returns 4-byte lane i as a float32.
func (v *VecVal) f32(i int) float32 {
	return math.Float32frombits(uint32(v.d[i>>1] >> (uint(i&1) << 5)))
}

// setF32 stores f into 4-byte lane i.
func (v *VecVal) setF32(i int, f float32) {
	sh := uint(i&1) << 5
	w := &v.d[i>>1]
	*w = *w&^(0xFFFFFFFF<<sh) | uint64(math.Float32bits(f))<<sh
}

// f32bin is fbin's fast path for OpVFAdd, OpVFSub and OpVFMul. It reports
// false, leaving out alone, when the lanes are not all float32.
func (a *vecArgs) f32bin(op Op, out *VecVal) bool {
	n := a.laneCount(a.A, a.B, nil)
	if !a.f32Lanes(n, a.A, a.B, nil) {
		return false
	}
	a.frame(out, n)
	x, y := a.A, a.B
	switch op {
	case OpVFAdd:
		for i := 0; i < n; i++ {
			out.setF32(i, x.f32(i)+y.f32(i))
		}
	case OpVFSub:
		for i := 0; i < n; i++ {
			out.setF32(i, x.f32(i)-y.f32(i))
		}
	case OpVFMul:
		for i := 0; i < n; i++ {
			out.setF32(i, x.f32(i)*y.f32(i))
		}
	}
	return true
}

// f32fma is fma's fast path. It reports false, leaving out alone, when the
// lanes are not all float32.
func (a *vecArgs) f32fma(out *VecVal) bool {
	n := a.laneCount(a.A, a.B, a.C)
	if !a.f32Lanes(n, a.A, a.B, a.C) {
		return false
	}
	a.frame(out, n)
	x, y, z := a.A, a.B, a.C
	for i := 0; i < n; i++ {
		out.setF32(i, x.f32(i)*y.f32(i)+z.f32(i))
	}
	return true
}

// ibin computes a lane-wise signed integer binary operation of A and B.
func (a *vecArgs) ibin(out *VecVal, f func(x, y int64) int64) {
	w := a.W
	n := a.laneCount(a.A, a.B, nil)
	a.frame(out, n)
	for i := 0; i < n; i++ {
		out.SetLane(i, Truncate(w, uint64(f(SignExtend(w, a.A.Lane(i)), SignExtend(w, a.B.Lane(i))))))
	}
}

// evalVecALU computes a vector ALU result into out, which must not alias an
// operand. Lanes beyond the computed count are absent (zeroing predication;
// the baselines' predicated stores use the same predicate so trimmed lanes
// are never observable, and UVE chunks carry their own lane counts).
func evalVecALU(op Op, args *vecArgs, out *VecVal) {
	w := args.W
	switch op {
	case OpVDup, OpVDupX:
		*out = NewVec(w, args.Pred.Limit(args.Lanes))
		for i := 0; i < out.N; i++ {
			out.SetLane(i, args.Scalar)
		}
	case OpVMove:
		*out = *args.A
		out.present = out.N > 0
		if n := args.Pred.Limit(args.Lanes); out.N > n {
			out.truncate(n)
		}
	case OpVBcast:
		*out = NewVec(w, args.Pred.Limit(args.Lanes))
		for i := 0; i < out.N; i++ {
			out.SetLane(i, args.A.Lane(0))
		}

	case OpVFAdd:
		if !args.f32bin(op, out) {
			args.fbin(out, func(x, y float64) float64 { return x + y })
		}
	case OpVFSub:
		if !args.f32bin(op, out) {
			args.fbin(out, func(x, y float64) float64 { return x - y })
		}
	case OpVFMul:
		if !args.f32bin(op, out) {
			args.fbin(out, func(x, y float64) float64 { return x * y })
		}
	case OpVFDiv:
		args.fbin(out, func(x, y float64) float64 { return x / y })
	case OpVFMax:
		args.fbin(out, math.Max)
	case OpVFMin:
		args.fbin(out, math.Min)
	case OpVFSqrt:
		n := args.laneCount(args.A, nil, nil)
		args.frame(out, n)
		for i := 0; i < n; i++ {
			out.SetLane(i, floatToBits(w, math.Sqrt(args.A.F(i))))
		}
	case OpVFMla, OpVFMulAdd:
		// OpVFMla: dst = C + A·B (C is the old dst); OpVFMulAdd: dst = A·B + C.
		if !args.f32fma(out) {
			args.fma(out)
		}
	case OpVAdd:
		args.ibin(out, func(x, y int64) int64 { return x + y })
	case OpVSub:
		args.ibin(out, func(x, y int64) int64 { return x - y })
	case OpVMul:
		args.ibin(out, func(x, y int64) int64 { return x * y })
	case OpVMax:
		args.ibin(out, func(x, y int64) int64 {
			if x > y {
				return x
			}
			return y
		})
	case OpVMin:
		args.ibin(out, func(x, y int64) int64 {
			if x < y {
				return x
			}
			return y
		})
	case OpVAnd:
		args.ibin(out, func(x, y int64) int64 { return x & y })
	case OpVOr:
		args.ibin(out, func(x, y int64) int64 { return x | y })
	case OpVXor:
		args.ibin(out, func(x, y int64) int64 { return x ^ y })
	default:
		panic(fmt.Sprintf("evalVecALU: not a vector ALU op: %s", op.Name()))
	}
}

// evalVecHoriz reduces a vector's valid lanes to a single value (raw bits).
// Reducing zero lanes yields the operation's identity (0 for add, and the
// first-lane default of 0 for max/min, matching hardware's behavior on an
// all-false predicate).
func evalVecHoriz(op Op, w arch.ElemWidth, v *VecVal) uint64 {
	switch op {
	case OpVFAddV, OpVFAddVF:
		acc := 0.0
		if w == arch.W4 {
			acc32 := float32(0)
			for i := 0; i < v.N; i++ {
				acc32 += float32(v.F(i))
			}
			return floatToBits(w, float64(acc32))
		}
		for i := 0; i < v.N; i++ {
			acc += v.F(i)
		}
		return floatToBits(w, acc)
	case OpVFMaxV, OpVFMaxVF:
		if v.N == 0 {
			return 0
		}
		acc := v.F(0)
		for i := 1; i < v.N; i++ {
			acc = math.Max(acc, v.F(i))
		}
		return floatToBits(w, acc)
	case OpVFMinV, OpVFMinVF:
		if v.N == 0 {
			return 0
		}
		acc := v.F(0)
		for i := 1; i < v.N; i++ {
			acc = math.Min(acc, v.F(i))
		}
		return floatToBits(w, acc)
	}
	panic(fmt.Sprintf("evalVecHoriz: not a horizontal op: %s", op.Name()))
}

// evalWhilelt computes the whilelt predicate: active lanes l where
// idx + l < n, clamped to the architected lane count.
func evalWhilelt(idx, n uint64, lanes int) PredVal {
	remaining := int64(n) - int64(idx)
	switch {
	case remaining <= 0:
		return PredVal{Active: 0}
	case remaining >= int64(lanes):
		return PredVal{Active: lanes}
	default:
		return PredVal{Active: int(remaining)}
	}
}
