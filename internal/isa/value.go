package isa

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
)

// VecVal is the value of a vector register: the register image of up to
// arch.MaxVecBytes bytes, held inline so values copy instead of allocating.
// Lane i occupies bytes [i·W, (i+1)·W) of the image, little-endian, and
// holds the raw bits of element i truncated to W bytes. Only the first N
// lanes are valid: UVE's streaming engine delivers chunks whose N reflects
// automatic out-of-bounds lane disabling (paper F5), and predicated baseline
// loads produce N equal to the active-prefix length. At most MaxLanes(W)
// lanes fit.
//
// A value is present or absent. Absent values (the zero VecVal, VecFrom of
// no lanes, a VecVal{W: w} literal such as an all-inactive load's result)
// are ignored when evalVecALU intersects operand lane counts; NewVec always
// returns a present value, even of zero lanes.
type VecVal struct {
	W       arch.ElemWidth
	N       int
	present bool
	d       [arch.MaxVecBytes / 8]uint64
}

// MaxLanes returns how many lanes of width w a vector value holds.
func MaxLanes(w arch.ElemWidth) int { return arch.LanesFor(arch.MaxVecBytes, w) }

// NewVec returns a present all-zero vector of n lanes of width w.
func NewVec(w arch.ElemWidth, n int) VecVal {
	return VecVal{W: w, N: n, present: true}
}

// VecFrom builds a vector from raw element bits, truncating each to w bytes.
// It is absent when lanes is empty.
func VecFrom(w arch.ElemWidth, lanes []uint64) VecVal {
	v := VecVal{W: w, N: len(lanes), present: len(lanes) > 0}
	for i, x := range lanes {
		v.SetLane(i, x)
	}
	return v
}

// Lane returns lane i, or 0 when i is out of the valid range.
func (v *VecVal) Lane(i int) uint64 {
	if i < 0 || i >= v.N {
		return 0
	}
	if v.W == arch.W8 {
		return v.d[i]
	}
	bits := uint(v.W) * 8
	at := uint(i) * bits
	return v.d[at/64] >> (at % 64) & (1<<bits - 1)
}

// SetLane stores x, truncated to the lane width, into lane i (i must be
// below MaxLanes(W); N is unchanged).
func (v *VecVal) SetLane(i int, x uint64) {
	if v.W == arch.W8 {
		v.d[i] = x
		return
	}
	bits := uint(v.W) * 8
	at := uint(i) * bits
	mask := uint64(1)<<bits - 1
	word := &v.d[at/64]
	*word = *word&^(mask<<(at%64)) | (x&mask)<<(at%64)
}

// truncate drops the lanes from n on, zeroing their bits.
func (v *VecVal) truncate(n int) {
	for i := n; i < v.N; i++ {
		v.SetLane(i, 0)
	}
	v.N = n
}

// F returns lane i interpreted as a float of the vector's width.
func (v *VecVal) F(i int) float64 { return bitsToFloat(v.W, v.Lane(i)) }

func (v VecVal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v.%s[%d]{", v.W, v.N)
	for i := 0; i < v.N && i < 8; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", v.F(i))
	}
	if v.N > 8 {
		b.WriteString(" …")
	}
	b.WriteByte('}')
	return b.String()
}

// PredVal is the value of a predicate register. All predicates produced by
// this ISA subset are prefix predicates (the first Active lanes are true),
// which matches whilelt-style loop control and UVE's automatic padding.
type PredVal struct {
	// Active is the number of leading true lanes. A negative value denotes
	// "all lanes", whatever the consuming instruction's lane count is; the
	// hardwired p0 register holds this value.
	Active int
}

// AllLanes is the p0 value: every lane active.
var AllLanes = PredVal{Active: -1}

// Limit returns the active lane count clamped to lanes.
func (p PredVal) Limit(lanes int) int {
	if p.Active < 0 || p.Active > lanes {
		return lanes
	}
	return p.Active
}

// Any reports whether at least one lane is active.
func (p PredVal) Any() bool { return p.Active != 0 }

func (p PredVal) String() string {
	if p.Active < 0 {
		return "p{all}"
	}
	return fmt.Sprintf("p{%d}", p.Active)
}

// --- float bit helpers ---

func bitsToFloat(w arch.ElemWidth, bits uint64) float64 {
	if w == arch.W4 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

func floatToBits(w arch.ElemWidth, f float64) uint64 {
	if w == arch.W4 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// FloatBits converts a float to raw bits of width w (exported for kernels
// and the memory image builder).
func FloatBits(w arch.ElemWidth, f float64) uint64 { return floatToBits(w, f) }

// BitsFloat converts raw bits of width w to a float.
func BitsFloat(w arch.ElemWidth, bits uint64) float64 { return bitsToFloat(w, bits) }

// SignExtend interprets the low 8·w bits of v as a signed integer.
func SignExtend(w arch.ElemWidth, v uint64) int64 {
	shift := 64 - 8*uint(w)
	return int64(v<<shift) >> shift
}

// Truncate masks v to the low 8·w bits.
func Truncate(w arch.ElemWidth, v uint64) uint64 {
	if w == arch.W8 {
		return v
	}
	return v & (1<<(8*uint(w)) - 1)
}
