package isa

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// f32Specials are lane bit patterns the float32 fast path must carry
// exactly: NaN payloads (quiet and signaling, both signs), signed zeros,
// subnormals, infinities and the extremes of the normal range.
var f32Specials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc00001, 0x7fd23456, 0xffe00abc, // quiet NaNs
	0x7f800001, 0xff800001, 0x7fa00000, 0x7f812345, // signaling NaNs
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
	0x3f800000, 0xbf800000, 0x3f800001, 0x33800000, // ±1, 1+ulp, 2^-24
}

// randF32Lane draws a lane: a special value, or random bits (mostly
// normals of moderate exponent, so sums and products round).
func randF32Lane(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return uint64(f32Specials[r.Intn(len(f32Specials))])
	case 1:
		return uint64(r.Uint32())
	}
	return uint64(math.Float32bits(float32(r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20)))))
}

func randVec(r *rand.Rand, w arch.ElemWidth, n int) VecVal {
	v := NewVec(w, n)
	for i := 0; i < n; i++ {
		if w == arch.W4 {
			v.SetLane(i, randF32Lane(r))
		} else {
			v.SetLane(i, math.Float64bits(r.NormFloat64()))
		}
	}
	return v
}

// genericF32 computes op through the generic float64 path, as evalVecALU
// did before the float32 fast path.
func genericF32(op Op, args *vecArgs, out *VecVal) {
	switch op {
	case OpVFAdd:
		args.fbin(out, func(x, y float64) float64 { return x + y })
	case OpVFSub:
		args.fbin(out, func(x, y float64) float64 { return x - y })
	case OpVFMul:
		args.fbin(out, func(x, y float64) float64 { return x * y })
	case OpVFMla, OpVFMulAdd:
		args.fma(out)
	}
}

// sameVec reports whether two results agree in width, lane count, presence
// and every bit of the register image (lanes past N included).
func sameVec(a, b *VecVal) bool {
	return a.W == b.W && a.N == b.N && a.present == b.present && a.d == b.d
}

// TestFloat32LanesMatchGeneric compares the float32 fast path with the
// generic float64 path, bit for bit, for add, sub, mul, mla and muladd at
// 4-byte width: random and special lanes, partial predicates, operands with
// fewer lanes than the predicate allows, and a merge operand with more lanes
// than are computed.
func TestFloat32LanesMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	maxLanes := MaxLanes(arch.W4)
	ops := []Op{OpVFAdd, OpVFSub, OpVFMul, OpVFMla, OpVFMulAdd}
	fast := 0
	for iter := 0; iter < 20000; iter++ {
		op := ops[iter%len(ops)]
		lanes := 1 + r.Intn(maxLanes)
		a := randVec(r, arch.W4, 1+r.Intn(maxLanes))
		b := randVec(r, arch.W4, 1+r.Intn(maxLanes))
		c := randVec(r, arch.W4, 1+r.Intn(maxLanes))
		args := vecArgs{A: &a, B: &b, C: &c, Lanes: lanes, W: arch.W4, Pred: AllLanes}
		if r.Intn(2) == 0 {
			args.Pred = PredVal{Active: r.Intn(lanes + 1)}
		}
		var merge VecVal
		if r.Intn(2) == 0 {
			merge = randVec(r, arch.W4, 1+r.Intn(maxLanes))
			args.Merge = &merge
		}
		var got, want VecVal
		evalVecALU(op, &args, &got)
		genericF32(op, &args, &want)
		if !sameVec(&got, &want) {
			t.Fatalf("%s lanes=%d pred=%v merge=%v:\n a=%x\n b=%x\n c=%x\n fast    %x (N=%d)\n generic %x (N=%d)",
				op.Name(), lanes, args.Pred, args.Merge != nil, a.d, b.d, c.d, got.d, got.N, want.d, want.N)
		}
		n := args.laneCount(args.A, args.B, nil)
		if op == OpVFMla || op == OpVFMulAdd {
			n = args.laneCount(args.A, args.B, args.C)
		}
		if args.f32Lanes(n, args.A, args.B, args.C) {
			fast++
		}
	}
	if fast < 10000 {
		t.Fatalf("only %d of 20000 cases took the fast path", fast)
	}
}

// TestFloat32LanesSpecialPairs runs every pair of special lanes through each
// op, in both operand orders, so each NaN payload meets every other value.
func TestFloat32LanesSpecialPairs(t *testing.T) {
	maxLanes := MaxLanes(arch.W4)
	for _, op := range []Op{OpVFAdd, OpVFSub, OpVFMul, OpVFMla, OpVFMulAdd} {
		for _, x := range f32Specials {
			for start := 0; start < len(f32Specials); start += maxLanes {
				n := min(maxLanes, len(f32Specials)-start)
				a, b, c := NewVec(arch.W4, n), NewVec(arch.W4, n), NewVec(arch.W4, n)
				for i := 0; i < n; i++ {
					y := f32Specials[start+i]
					a.SetLane(i, uint64(x))
					b.SetLane(i, uint64(y))
					c.SetLane(i, uint64(f32Specials[(start+i+7)%len(f32Specials)]))
				}
				for _, swap := range []bool{false, true} {
					args := vecArgs{A: &a, B: &b, C: &c, Lanes: maxLanes, W: arch.W4, Pred: AllLanes}
					if swap {
						args.A, args.B = &b, &a
					}
					var got, want VecVal
					evalVecALU(op, &args, &got)
					genericF32(op, &args, &want)
					if !sameVec(&got, &want) {
						t.Fatalf("%s x=%#x swap=%v: fast %x, generic %x", op.Name(), x, swap, got.d, want.d)
					}
				}
			}
		}
	}
}

// TestFloat32LanesOtherWidthsTakeGenericPath checks that an operand or a
// merge of another width, or an absent operand, keeps the generic path.
func TestFloat32LanesOtherWidthsTakeGenericPath(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a4, b4, c4 := randVec(r, arch.W4, 8), randVec(r, arch.W4, 8), randVec(r, arch.W4, 8)
	a8 := randVec(r, arch.W8, 4)
	m8 := randVec(r, arch.W8, 8)
	var absent VecVal
	cases := []struct {
		name string
		args vecArgs
	}{
		{"8-byte A", vecArgs{A: &a8, B: &b4, C: &c4, Lanes: 8, W: arch.W4, Pred: AllLanes}},
		{"8-byte merge beyond the computed lanes", vecArgs{A: &a4, B: &b4, C: &c4, Lanes: 8, W: arch.W4, Pred: PredVal{Active: 3}, Merge: &m8}},
		{"8-byte op width", vecArgs{A: &a4, B: &b4, C: &c4, Lanes: 8, W: arch.W8, Pred: AllLanes}},
		{"absent B", vecArgs{A: &a4, B: &absent, C: &c4, Lanes: 8, W: arch.W4, Pred: AllLanes}},
	}
	for _, tc := range cases {
		for _, op := range []Op{OpVFAdd, OpVFSub, OpVFMul, OpVFMla, OpVFMulAdd} {
			args := tc.args
			var probe VecVal
			if op == OpVFMla || op == OpVFMulAdd {
				if args.f32fma(&probe) {
					t.Fatalf("%s %s: took the float32 fast path", tc.name, op.Name())
				}
			} else if args.f32bin(op, &probe) {
				t.Fatalf("%s %s: took the float32 fast path", tc.name, op.Name())
			}
			var got, want VecVal
			evalVecALU(op, &args, &got)
			genericF32(op, &args, &want)
			if !sameVec(&got, &want) {
				t.Fatalf("%s %s: evalVecALU %x, generic %x", tc.name, op.Name(), got.d, want.d)
			}
		}
	}
}
