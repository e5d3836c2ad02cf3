// Package absint is a sound abstract interpreter over program control-flow
// graphs: scalar integer registers are tracked as unsigned intervals, loop
// induction variables are recognized and clamped by stream-derived trip
// counts, predicate producers leave refinable facts, and widening at
// back-edges guarantees termination. The lint dependence pass uses the
// results to resolve register-addressed scalar stores, and the cost model
// uses the loop trip bounds to bound committed-instruction counts after its
// concrete walk bails out.
//
// Soundness contract: for every reachable program point and every integer
// register, the concrete value any execution holds there is contained in
// the reported interval (FuzzAbsintSoundness checks this against the
// functional simulator). Anything the analysis cannot bound degrades to
// Top, never to a wrong range.
package absint

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Interval is an unsigned value range [Lo, Hi], both ends inclusive.
// The zero value is the point 0; Top() is the full 64-bit range.
type Interval struct {
	Lo, Hi uint64
}

// Top returns the full-range interval (no information).
func Top() Interval { return Interval{0, ^uint64(0)} }

// Point returns the singleton interval {v}.
func Point(v uint64) Interval { return Interval{v, v} }

// IsTop reports whether the interval carries no information.
func (iv Interval) IsTop() bool { return iv.Lo == 0 && iv.Hi == ^uint64(0) }

// IsPoint reports whether the interval is a single value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint64) bool { return iv.Lo <= v && v <= iv.Hi }

// Union is the lattice join: the smallest interval containing both.
func (iv Interval) Union(o Interval) Interval {
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// Intersect returns the overlap and whether it is non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	if o.Lo > iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi < iv.Hi {
		iv.Hi = o.Hi
	}
	return iv, iv.Lo <= iv.Hi
}

func (iv Interval) String() string {
	if iv.IsTop() {
		return "⊤"
	}
	if iv.IsPoint() {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// signedNonNeg reports whether every value in the interval is non-negative
// under a signed interpretation, which makes signed and unsigned orderings
// agree. Refinements and signed comparisons apply only under this guard.
func (iv Interval) signedNonNeg() bool { return iv.Hi < 1<<63 }

// add is modular-interval addition: exact whenever the combined span fits
// in 64 bits and the result range does not wrap, Top otherwise. This keeps
// `addi x, x, -1` style negative immediates precise.
func add(a, b Interval) Interval {
	spanA, spanB := a.Hi-a.Lo, b.Hi-b.Lo
	span := spanA + spanB
	if span < spanA { // spans alone wrap: every value possible
		return Top()
	}
	lo := a.Lo + b.Lo // wrapping
	hi := lo + span
	if hi < lo { // result range wraps the 2^64 boundary
		return Top()
	}
	return Interval{lo, hi}
}

// sub is modular-interval subtraction (same wrap rules as add).
func sub(a, b Interval) Interval {
	spanA, spanB := a.Hi-a.Lo, b.Hi-b.Lo
	span := spanA + spanB
	if span < spanA {
		return Top()
	}
	lo := a.Lo - b.Hi // wrapping
	hi := lo + span
	if hi < lo {
		return Top()
	}
	return Interval{lo, hi}
}

func mul(a, b Interval) Interval {
	if hiHi, lo := bits.Mul64(a.Hi, b.Hi); hiHi == 0 {
		return Interval{a.Lo * b.Lo, lo}
	}
	return Top()
}

func shl(a Interval, k uint) Interval {
	if k == 0 {
		return a
	}
	if a.Hi>>(64-k) != 0 {
		return Top()
	}
	return Interval{a.Lo << k, a.Hi << k}
}

// EvalOp abstracts isa.EvalInt over intervals: for all a0 in a and b0 in b,
// EvalInt(op, a0, b0, imm) is contained in EvalOp(op, a, b, imm). Single
// values evaluate exactly, wrapping, dividing by zero and comparing signed
// as EvalInt does.
func EvalOp(op isa.Op, a, b Interval, imm int64) Interval {
	switch op {
	case isa.OpIncVL, isa.OpGetVL, isa.OpSSetVL:
		return Top() // lane counts are machine state, not operands
	case isa.OpLi, isa.OpMv, isa.OpAddI, isa.OpSllI, isa.OpSrlI, isa.OpAndI, isa.OpSltI:
		b = Point(0) // the immediate forms read no second operand
	}
	if op.Kind() == isa.KindIntALU && a.IsPoint() && b.IsPoint() {
		return Point(isa.EvalInt(op, a.Lo, b.Lo, imm))
	}
	switch op {
	case isa.OpNop, isa.OpHalt:
		return Point(0)
	case isa.OpLi:
		return Point(uint64(imm))
	case isa.OpMv:
		return a
	case isa.OpAdd:
		return add(a, b)
	case isa.OpAddI:
		return add(a, Point(uint64(imm)))
	case isa.OpSub:
		return sub(a, b)
	case isa.OpMul:
		return mul(a, b)
	case isa.OpDiv:
		if a.signedNonNeg() && b.signedNonNeg() && b.Lo > 0 {
			return Interval{a.Lo / b.Hi, a.Hi / b.Lo}
		}
		return Top()
	case isa.OpRem:
		if a.signedNonNeg() && b.signedNonNeg() && b.Lo > 0 {
			hi := b.Hi - 1
			if a.Hi < hi {
				hi = a.Hi
			}
			return Interval{0, hi}
		}
		return Top()
	case isa.OpSllI:
		return shl(a, uint(imm&63))
	case isa.OpSrlI:
		k := uint(imm & 63)
		return Interval{a.Lo >> k, a.Hi >> k}
	case isa.OpAndI:
		if imm >= 0 {
			hi := uint64(imm)
			if a.Hi < hi {
				hi = a.Hi
			}
			return Interval{0, hi}
		}
		return Top()
	case isa.OpAnd:
		hi := a.Hi
		if b.Hi < hi {
			hi = b.Hi
		}
		return Interval{0, hi}
	case isa.OpOr, isa.OpXor:
		// Both operands fit below the next power of two, so does the result.
		n := bits.Len64(a.Hi | b.Hi)
		if n >= 64 {
			return Top()
		}
		return Interval{0, 1<<uint(n) - 1}
	case isa.OpSlt:
		return cmpLt(a, b)
	case isa.OpSltI:
		return cmpLt(a, Point(uint64(imm)))
	}
	return Top()
}

// cmpLt abstracts the signed a < b comparison to {0}, {1} or [0,1].
func cmpLt(a, b Interval) Interval {
	if a.signedNonNeg() && b.signedNonNeg() {
		if a.Hi < b.Lo {
			return Point(1)
		}
		if a.Lo >= b.Hi {
			return Point(0)
		}
	}
	return Interval{0, 1}
}
