package isa

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

func TestEvalIntBasics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{OpLi, 0, 0, 42, 42},
		{OpMv, 7, 0, 0, 7},
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, ^uint64(0)},
		{OpMul, 6, 7, 0, 42},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, ^uint64(0)},
		{OpRem, 43, 6, 0, 1},
		{OpAddI, 10, 0, -3, 7},
		{OpSllI, 1, 0, 4, 16},
		{OpSrlI, 16, 0, 4, 1},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpSlt, uint64(^uint64(0)), 1, 0, 1}, // -1 < 1
		{OpSltI, 5, 0, 3, 0},
	}
	for _, c := range cases {
		if got := EvalInt(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("%s(%d,%d,imm=%d) = %d, want %d", c.op.Name(), c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalCondBranch(t *testing.T) {
	if !evalCondBranch(OpBeq, 3, 3) || evalCondBranch(OpBeq, 3, 4) {
		t.Error("beq wrong")
	}
	if !evalCondBranch(OpBne, 3, 4) || evalCondBranch(OpBne, 3, 3) {
		t.Error("bne wrong")
	}
	neg1 := ^uint64(0)
	if !evalCondBranch(OpBlt, neg1, 0) {
		t.Error("blt must be signed")
	}
	if !evalCondBranch(OpBge, 0, neg1) {
		t.Error("bge must be signed")
	}
	if !evalCondBranch(OpJ, 0, 0) {
		t.Error("j must always be taken")
	}
}

func TestEvalFPBothWidths(t *testing.T) {
	for _, w := range []arch.ElemWidth{arch.W4, arch.W8} {
		a := FloatBits(w, 1.5)
		b := FloatBits(w, 2.5)
		c := FloatBits(w, 10)
		if got := BitsFloat(w, evalFP(OpFAdd, w, a, b, 0, 0)); got != 4 {
			t.Errorf("w=%v fadd = %v, want 4", w, got)
		}
		if got := BitsFloat(w, evalFP(OpFMadd, w, a, b, c, 0)); got != 13.75 {
			t.Errorf("w=%v fmadd = %v, want 13.75", w, got)
		}
		if got := BitsFloat(w, evalFP(OpFSqrt, w, FloatBits(w, 9), 0, 0, 0)); got != 3 {
			t.Errorf("w=%v fsqrt = %v, want 3", w, got)
		}
		if got := evalFP(OpFLt, w, a, b, 0, 0); got != 1 {
			t.Errorf("w=%v flt = %d, want 1", w, got)
		}
		if got := BitsFloat(w, evalFP(OpItoF, w, 7, 0, 0, 0)); got != 7 {
			t.Errorf("w=%v itof = %v, want 7", w, got)
		}
	}
}

func TestEvalFPSinglePrecisionRounds(t *testing.T) {
	// 1/3 in float32 differs from float64; W4 math must round to float32.
	third64 := 1.0 / 3.0
	got := BitsFloat(arch.W4, evalFP(OpFDiv, arch.W4, FloatBits(arch.W4, 1), FloatBits(arch.W4, 3), 0, 0))
	if got == third64 {
		t.Fatal("W4 division produced float64 precision")
	}
	if float32(got) != float32(1.0)/float32(3.0) {
		t.Fatalf("W4 division = %v, want float32 1/3", got)
	}
}

func vec(w arch.ElemWidth, fs ...float64) *VecVal {
	l := make([]uint64, len(fs))
	for i, f := range fs {
		l[i] = FloatBits(w, f)
	}
	v := VecFrom(w, l)
	return &v
}

// eval runs evalVecALU into a fresh value.
func eval(op Op, args vecArgs) VecVal {
	var out VecVal
	evalVecALU(op, &args, &out)
	return out
}

func TestEvalVecALUFloat(t *testing.T) {
	w := arch.W8
	args := vecArgs{
		A: vec(w, 1, 2, 3, 4), B: vec(w, 10, 20, 30, 40),
		Pred: AllLanes, Lanes: 8, W: w,
	}
	out := eval(OpVFAdd, args)
	if out.N != 4 {
		t.Fatalf("lane count %d, want 4 (min of operands)", out.N)
	}
	for i, want := range []float64{11, 22, 33, 44} {
		if out.F(i) != want {
			t.Errorf("lane %d = %v, want %v", i, out.F(i), want)
		}
	}
}

func TestEvalVecALUPredicateLimits(t *testing.T) {
	w := arch.W4
	args := vecArgs{
		A: vec(w, 1, 2, 3, 4), B: vec(w, 1, 1, 1, 1),
		Pred: PredVal{Active: 2}, Lanes: 16, W: w,
	}
	out := eval(OpVFMul, args)
	if out.N != 2 {
		t.Fatalf("predicated lane count %d, want 2", out.N)
	}
}

func TestEvalVecMulAdd(t *testing.T) {
	w := arch.W8
	args := vecArgs{
		A: vec(w, 1, 2), B: vec(w, 3, 4), C: vec(w, 10, 10),
		Pred: AllLanes, Lanes: 8, W: w,
	}
	out := eval(OpVFMulAdd, args)
	if out.F(0) != 13 || out.F(1) != 18 {
		t.Fatalf("vfmuladd = %v,%v want 13,18", out.F(0), out.F(1))
	}
}

func TestEvalVecIntSignedness(t *testing.T) {
	w := arch.W4
	a := VecFrom(w, []uint64{Truncate(w, uint64(int64(-5)&0xffffffff)), 3})
	b := VecFrom(w, []uint64{2, 2})
	args := vecArgs{A: &a, B: &b, Pred: AllLanes, Lanes: 16, W: w}
	out := eval(OpVMax, args)
	if SignExtend(w, out.Lane(0)) != 2 {
		t.Errorf("vmax lane0 = %d, want 2 (signed compare)", SignExtend(w, out.Lane(0)))
	}
	out = eval(OpVMin, args)
	if SignExtend(w, out.Lane(0)) != -5 {
		t.Errorf("vmin lane0 = %d, want -5", SignExtend(w, out.Lane(0)))
	}
}

func TestEvalVecDup(t *testing.T) {
	args := vecArgs{Scalar: FloatBits(arch.W8, 3.5), Pred: AllLanes, Lanes: 8, W: arch.W8}
	out := eval(OpVDup, args)
	if out.N != 8 {
		t.Fatalf("dup lanes %d, want 8", out.N)
	}
	for i := 0; i < 8; i++ {
		if out.F(i) != 3.5 {
			t.Fatalf("dup lane %d = %v", i, out.F(i))
		}
	}
}

func TestEvalVecMoveClips(t *testing.T) {
	args := vecArgs{A: vec(arch.W8, 1, 2, 3, 4), Pred: PredVal{Active: 3}, Lanes: 8, W: arch.W8}
	out := eval(OpVMove, args)
	if out.N != 3 {
		t.Fatalf("vmove lanes %d, want 3", out.N)
	}
}

func TestEvalVecHoriz(t *testing.T) {
	w := arch.W8
	v := vec(w, 4, -1, 7, 2)
	if got := BitsFloat(w, evalVecHoriz(OpVFAddV, w, v)); got != 12 {
		t.Errorf("addv = %v, want 12", got)
	}
	if got := BitsFloat(w, evalVecHoriz(OpVFMaxV, w, v)); got != 7 {
		t.Errorf("maxv = %v, want 7", got)
	}
	if got := BitsFloat(w, evalVecHoriz(OpVFMinV, w, v)); got != -1 {
		t.Errorf("minv = %v, want -1", got)
	}
	empty := VecVal{W: w}
	if got := evalVecHoriz(OpVFMaxV, w, &empty); got != 0 {
		t.Errorf("maxv of empty = %#x, want 0", got)
	}
}

func TestEvalVecHorizSinglePrecisionOrder(t *testing.T) {
	// float32 accumulation must not be done in float64.
	w := arch.W4
	v := vec(w, 1e8, 1, -1e8)
	got := float32(BitsFloat(w, evalVecHoriz(OpVFAddV, w, v)))
	want := (float32(1e8) + 1) - 1e8
	if got != want {
		t.Errorf("W4 addv = %v, want %v (float32 order)", got, want)
	}
}

func TestEvalWhilelt(t *testing.T) {
	if p := evalWhilelt(0, 100, 16); p.Active != 16 {
		t.Errorf("full: %d, want 16", p.Active)
	}
	if p := evalWhilelt(96, 100, 16); p.Active != 4 {
		t.Errorf("tail: %d, want 4", p.Active)
	}
	if p := evalWhilelt(100, 100, 16); p.Active != 0 || p.Any() {
		t.Errorf("done: %v, want 0 inactive", p)
	}
}

func TestPredLimit(t *testing.T) {
	if AllLanes.Limit(16) != 16 {
		t.Error("AllLanes must cover any lane count")
	}
	if (PredVal{Active: 3}).Limit(2) != 2 {
		t.Error("limit must clamp to lanes")
	}
}

func TestQuickWhileltMatchesScalarLoop(t *testing.T) {
	f := func(idx, n uint16, lanesSel uint8) bool {
		lanes := []int{4, 8, 16}[lanesSel%3]
		p := evalWhilelt(uint64(idx), uint64(n), lanes)
		count := 0
		for l := 0; l < lanes; l++ {
			if int(idx)+l < int(n) {
				count++
			}
		}
		return p.Active == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignExtendTruncate(t *testing.T) {
	if SignExtend(arch.W1, 0xff) != -1 {
		t.Error("W1 sign extend")
	}
	if SignExtend(arch.W4, 0x7fffffff) != math.MaxInt32 {
		t.Error("W4 positive")
	}
	if Truncate(arch.W2, 0x12345) != 0x2345 {
		t.Error("W2 truncate")
	}
	if Truncate(arch.W8, ^uint64(0)) != ^uint64(0) {
		t.Error("W8 truncate must be identity")
	}
}

func TestSCfgPartsRoundTrip(t *testing.T) {
	cases := []*descriptor.Descriptor{
		descriptor.New(0x1000, arch.W4, descriptor.Load).Linear(64, 1).MustBuild(),
		descriptor.New(0x2000, arch.W8, descriptor.Store).Dim(0, 8, 1).Dim(0, 4, 8).MustBuild(),
		descriptor.New(0x3000, arch.W4, descriptor.Load).
			Dim(0, 0, 1).Dim(0, 6, 9).Mod(descriptor.TargetSize, descriptor.Add, 1, 6).MustBuild(),
		descriptor.New(0x4000, arch.W8, descriptor.Load).
			Dim(0, 1, 0).IndirectOuter(descriptor.TargetOffset, descriptor.SetAdd, 5).MustBuild(),
		descriptor.New(0x5000, arch.W4, descriptor.Load).
			Dim(0, 4, 1).Dim(0, 3, 0).Indirect(descriptor.TargetOffset, descriptor.SetValue, 2).MustBuild(),
	}
	for _, d := range cases {
		insts := SCfgParts(7, d)
		wantLen := len(d.Dims) + len(d.Static) + len(d.Indirect)
		if len(insts) != wantLen {
			t.Errorf("%s: %d config µOps, want %d", d, len(insts), wantLen)
		}
		if !insts[0].Cfg.Start || !insts[len(insts)-1].Cfg.End {
			t.Errorf("%s: start/end flags wrong", d)
		}
		var parts []*StreamCfgPart
		for _, in := range insts {
			if in.Op != OpSCfg || in.Cfg.Stream != 7 {
				t.Fatalf("%s: bad config µOp %v", d, in)
			}
			parts = append(parts, in.Cfg)
		}
		got, err := RebuildDescriptor(parts)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", d, err)
		}
		a := descriptor.Addresses(d, dummyOrigin{})
		b := descriptor.Addresses(got, dummyOrigin{})
		if len(a) != len(b) {
			t.Fatalf("%s: rebuilt descriptor sequence length %d, want %d", d, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: rebuilt sequence diverges at %d: %#x vs %#x", d, i, b[i], a[i])
			}
		}
	}
}

// dummyOrigin supplies a short synthetic index sequence for round-trip tests.
type dummyOrigin struct{}

func (dummyOrigin) NextOrigin(int) (uint64, bool) { return 0, false }

func TestRebuildDescriptorErrors(t *testing.T) {
	if _, err := RebuildDescriptor(nil); err == nil {
		t.Error("empty parts accepted")
	}
	if _, err := RebuildDescriptor([]*StreamCfgPart{{Dim: descriptor.Dim{Size: 1}}}); err == nil {
		t.Error("missing start accepted")
	}
}

func TestOpMetadata(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if op.Name() == "" {
			t.Errorf("op %d has no name", op)
		}
		if op.Latency() < 1 {
			t.Errorf("op %s latency %d", op.Name(), op.Latency())
		}
		if op.HasDataOperands() == (op.IsStreamCtl() || op.IsStreamBranch()) {
			t.Errorf("op %s: HasDataOperands=%v disagrees with the stream-control/branch classification", op.Name(), op.HasDataOperands())
		}
	}
	if !OpBne.IsConditionalBranch() || OpJ.IsConditionalBranch() {
		t.Error("conditional branch classification wrong")
	}
	if !OpSBNotEnd.IsStreamBranch() || OpBne.IsStreamBranch() {
		t.Error("stream branch classification wrong")
	}
	if !OpVLoad.IsMem() || !OpVStore.IsStore() || OpVFAdd.IsMem() {
		t.Error("memory classification wrong")
	}
	if !OpVFMla.IsVector() || OpAdd.IsVector() {
		t.Error("vector classification wrong")
	}
}

func TestRegHelpers(t *testing.T) {
	if !X(0).IsZero() || X(1).IsZero() || F(0).IsZero() {
		t.Error("IsZero wrong")
	}
	if !X(31).Valid() || X(32).Valid() || !P(15).Valid() || P(16).Valid() {
		t.Error("Valid wrong")
	}
	if V(3).String() != "u3" || P(2).String() != "p2" {
		t.Error("String wrong")
	}
}

func TestInstSrcs(t *testing.T) {
	in := VFMla(arch.W8, V(1), V(2), V(3), P(1))
	var srcs []Reg
	srcs = in.Srcs(srcs)
	if len(srcs) != 4 { // a, b, old dst, pred
		t.Fatalf("fmla srcs = %v", srcs)
	}
	in2 := Li(X(1), 5)
	if got := in2.Srcs(nil); len(got) != 0 {
		t.Fatalf("li srcs = %v", got)
	}
}
