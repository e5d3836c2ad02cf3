package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// rows2D is an N-row, rowLen-column row-major load pattern.
func rows2D(base uint64, w arch.ElemWidth, rows, rowLen, stride int) *descriptor.Descriptor {
	return descriptor.New(base, w, descriptor.Load).
		Dim(0, int64(rowLen), 1).
		Dim(0, int64(rows), int64(stride)).
		MustBuild()
}

// repRows repeats a length-n vector once per row, rows times. Such small,
// heavily re-used structures are streamed from the L1 (so.cfg.mem1), the
// use-case the paper calls out for L1-level streaming (§VI-B, Fig 11).
func repRows(base uint64, w arch.ElemWidth, rows, n int) *descriptor.Descriptor {
	return descriptor.New(base, w, descriptor.Load).
		Dim(0, int64(n), 1).
		Dim(0, int64(rows), 0).
		AtLevel(arch.LevelL1).
		MustBuild()
}

// scalarRows delivers one element per row (1-element dim-0 runs), so each
// horizontal result pairs with exactly one chunk.
func scalarRows(base uint64, w arch.ElemWidth, rows, stride int, kind descriptor.Kind) *descriptor.Descriptor {
	return descriptor.New(base, w, kind).
		Dim(0, 1, 1).
		Dim(0, int64(rows), int64(stride)).
		MustBuild()
}

// emitDotRowsUVE appends a "per row: out = combine(Σ row·vec, carry-in)"
// loop using four streams at u0: matrix rows (or columns), the repeated
// vector, a 1-element carry-in stream and the 1-element output stream.
// combine receives 1-lane vectors: (sum, carryIn) → written to the output
// stream register.
func emitDotRowsUVE(b *program.Builder, tag string, uMat, uVec, uIn, uOut int,
	combine func(b *program.Builder, sum, carry isa.Reg, out isa.Reg)) {
	const w = arch.W4
	b.Label(tag + "_row")
	b.I(isa.VDupX(w, isa.V(28), isa.X(0)))
	b.Label(tag + "_ch")
	b.I(isa.VFMul(w, isa.V(26), isa.V(uMat), isa.V(uVec), isa.None))
	b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(26), isa.None))
	b.I(isa.SBDimNotEnd(uMat, 0, tag+"_ch"))
	b.I(isa.VFAddV(w, isa.V(27), isa.V(28)))
	combine(b, isa.V(27), isa.V(uIn), isa.V(uOut))
	b.I(isa.SBNotEnd(uMat, tag+"_row"))
}

// emitColUpdateUVE appends the blocked-interchange form of a transposed
// matrix-vector update: for each lane block ib, acc starts from a carry
// block and accumulates (scale·v[j])·M[j][ib] over all rows j, then stores.
// This is the vectorization a hand-coder uses for Aᵀ·y — unit-stride matrix
// chunks instead of strided columns. Streams at uMat: matrix blocks (3-D),
// per-j vector scalars, carry-in blocks, output blocks. scaleV names a
// broadcast-scale vector register, or None for scale 1.
func emitColUpdateUVE(b *program.Builder, tag string, uMat, uVec, uIn, uOut int, scaleV isa.Reg) {
	const w = arch.W4
	b.Label(tag + "_ib")
	b.I(isa.VMove(w, isa.V(28), isa.V(uIn))) // acc = carry block
	b.Label(tag + "_j")
	b.I(isa.VBcast(w, isa.V(27), isa.V(uVec)))
	if scaleV.Class != isa.ClassNone {
		b.I(isa.VFMul(w, isa.V(27), isa.V(27), scaleV, isa.None))
	}
	b.I(isa.VFMul(w, isa.V(26), isa.V(27), isa.V(uMat), isa.None))
	b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(26), isa.None))
	b.I(isa.SBDimNotEnd(uMat, 1, tag+"_j"))
	b.I(isa.VMove(w, isa.V(uOut), isa.V(28)))
	b.I(isa.SBNotEnd(uMat, tag+"_ib"))
}

// colUpdateStreamsUVE configures the four streams emitColUpdateUVE expects:
// matrix blocks M[j][ib·L..], the per-j vector, and carry-in/out blocks.
func colUpdateStreamsUVE(b *program.Builder, uMat, uVec, uIn, uOut int,
	mat, vec, carry, out uint64, n int) {
	const w = arch.W4
	lanes := arch.LanesFor(arch.MaxVecBytes, w)
	if n%lanes != 0 {
		b.Errorf("colUpdate: N=%d must be a multiple of the UVE lane count %d", n, lanes)
	}
	nb := int64(n / lanes)
	n64, l64 := int64(n), int64(lanes)
	b.ConfigStream(uMat, descriptor.New(mat, w, descriptor.Load).
		Dim(0, l64, 1).Dim(0, n64, n64).Dim(0, nb, l64).MustBuild())
	b.ConfigStream(uVec, descriptor.New(vec, w, descriptor.Load).
		Dim(0, 1, 1).Dim(0, n64, 1).Dim(0, nb, 0).MustBuild())
	b.ConfigStream(uIn, descriptor.New(carry, w, descriptor.Load).
		Dim(0, l64, 1).Dim(0, nb, l64).MustBuild())
	b.ConfigStream(uOut, descriptor.New(out, w, descriptor.Store).
		Dim(0, l64, 1).Dim(0, nb, l64).MustBuild())
}

// emitDotRowsBaseline appends the baseline row-dot loop: x{regOut}[i] =
// x{regIn}[i] + scale·Σj M[i·stride+j]·v[j]. scaleV names a vector register
// holding the broadcast scale (or None for scale=1).
func emitDotRowsBaseline(b *program.Builder, v Variant, tag string,
	regMat, regVec, regIn, regOut int, scaleF isa.Reg) {
	const w = arch.W4
	lanes := lanesFor(v, w)
	b.I(isa.Li(isa.X(5), 0)) // i
	b.Label(tag + "_i")
	b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1))) // i*N
	b.I(isa.VDupX(w, isa.V(3), isa.X(0)))      // acc
	b.I(isa.Li(isa.X(9), 0))                   // j
	if v == SVE {
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		b.Label(tag + "_j")
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
		b.I(isa.VLoad(w, isa.V(1), isa.X(regMat), isa.X(12), 0, isa.P(1)))
		b.I(isa.VLoad(w, isa.V(2), isa.X(regVec), isa.X(9), 0, isa.P(1)))
		b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), isa.P(1)))
		b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		b.I(isa.BFirst(isa.P(1), tag+"_j"))
		b.I(isa.VFAddVF(w, isa.F(20), isa.V(3)))
	} else {
		b.I(isa.Li(isa.X(15), int64(lanes)))
		b.I(isa.Div(isa.X(10), isa.X(1), isa.X(15)))
		b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
		b.I(isa.Beq(isa.X(10), isa.X(0), tag+"_jt"))
		b.Label(tag + "_j")
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
		b.I(isa.VLoad(w, isa.V(1), isa.X(regMat), isa.X(12), 0, isa.None))
		b.I(isa.VLoad(w, isa.V(2), isa.X(regVec), isa.X(9), 0, isa.None))
		b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), isa.None))
		b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
		b.I(isa.Blt(isa.X(9), isa.X(10), tag+"_j"))
		b.Label(tag + "_jt")
		b.I(isa.VFAddVF(w, isa.F(20), isa.V(3)))
		// Scalar tail accumulates onto f20.
		b.I(isa.Bge(isa.X(9), isa.X(1), tag+"_jd"))
		b.Label(tag + "_jtl")
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
		b.I(isa.SllI(isa.X(13), isa.X(12), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(regMat)))
		b.I(isa.FLoad(w, isa.F(21), isa.X(13), 0))
		b.I(isa.SllI(isa.X(13), isa.X(9), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(regVec)))
		b.I(isa.FLoad(w, isa.F(22), isa.X(13), 0))
		b.I(isa.FMadd(w, isa.F(20), isa.F(21), isa.F(22), isa.F(20)))
		b.I(isa.AddI(isa.X(9), isa.X(9), 1))
		b.I(isa.Blt(isa.X(9), isa.X(1), tag+"_jtl"))
		b.Label(tag + "_jd")
	}
	if scaleF.Class != isa.ClassNone {
		b.I(isa.FMul(w, isa.F(20), isa.F(20), scaleF))
	}
	b.I(isa.SllI(isa.X(13), isa.X(5), 2))
	b.I(isa.Add(isa.X(14), isa.X(13), isa.X(regIn)))
	b.I(isa.FLoad(w, isa.F(23), isa.X(14), 0))
	b.I(isa.FAdd(w, isa.F(24), isa.F(23), isa.F(20)))
	b.I(isa.Add(isa.X(14), isa.X(13), isa.X(regOut)))
	b.I(isa.FStore(w, isa.X(14), 0, isa.F(24)))
	b.I(isa.AddI(isa.X(5), isa.X(5), 1))
	b.I(isa.Blt(isa.X(5), isa.X(1), tag+"_i"))
}

// emitColUpdateBaseline appends the interchange form used by the baselines
// for transposed products: for ib blocks: acc = x[ib..]; for j: acc +=
// (scale·v[j])·M[j][ib]; store. This is how a vectorizing compiler handles
// Aᵀ·y without gathers.
func emitColUpdateBaseline(b *program.Builder, v Variant, tag string,
	regMat, regVec, regX int, scaleF isa.Reg) {
	const w = arch.W4
	lanes := lanesFor(v, w)
	pred := isa.None
	if v == SVE {
		pred = isa.P(1)
	}
	b.I(isa.Li(isa.X(6), 0)) // ib
	if v == SVE {
		b.I(isa.Whilelt(w, isa.P(1), isa.X(6), isa.X(1)))
	}
	b.Label(tag + "_ib")
	b.I(isa.VLoad(w, isa.V(3), isa.X(regX), isa.X(6), 0, pred))
	b.I(isa.Li(isa.X(7), 0))         // j
	b.I(isa.Mv(isa.X(11), isa.X(6))) // midx = ib
	b.Label(tag + "_j")
	b.I(isa.SllI(isa.X(13), isa.X(7), 2))
	b.I(isa.Add(isa.X(13), isa.X(13), isa.X(regVec)))
	b.I(isa.FLoad(w, isa.F(2), isa.X(13), 0))
	if scaleF.Class != isa.ClassNone {
		b.I(isa.FMul(w, isa.F(2), isa.F(2), scaleF))
	}
	b.I(isa.VDup(w, isa.V(1), isa.F(2)))
	b.I(isa.VLoad(w, isa.V(2), isa.X(regMat), isa.X(11), 0, pred))
	b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), pred))
	b.I(isa.Add(isa.X(11), isa.X(11), isa.X(1)))
	b.I(isa.AddI(isa.X(7), isa.X(7), 1))
	b.I(isa.Blt(isa.X(7), isa.X(1), tag+"_j"))
	b.I(isa.VStore(w, isa.X(regX), isa.X(6), 0, isa.V(3), pred))
	if v == SVE {
		b.I(isa.IncVL(w, isa.X(6), isa.X(6)))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(6), isa.X(1)))
		b.I(isa.BFirst(isa.P(1), tag+"_ib"))
	} else {
		b.I(isa.AddI(isa.X(6), isa.X(6), int64(lanes)))
		b.I(isa.Blt(isa.X(6), isa.X(1), tag+"_ib"))
	}
}

// --- F. MVT ---

// KMvt is x1 += A·y1; x2 += Aᵀ·y2 (PolyBench mvt).
var KMvt = register(&Kernel{
	ID: "F", Name: "MVT", Domain: "algebra",
	Streams: 8, Loops: 2, Pattern: "2D",
	SVEVectorized: true,
	DefaultSize:   192,
	MaxSize:       2192,
	MinSize:       32,
	SizeStep:      16,
	Build:         buildMvt,
})

func buildMvt(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(606)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	y1B, y1 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	y2B, y2 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	x1B, x1 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	x2B, x2 := allocF32(h, n, func(int) float64 { return rng.f32(1) })

	want1 := make([]float64, n)
	want2 := make([]float64, n)
	for i := 0; i < n; i++ {
		s1, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s1 += av[i*n+j] * y1[j]
			s2 += av[j*n+i] * y2[j]
		}
		want1[i] = x1[i] + s1
		want2[i] = x2[i] + s2
	}

	const w = arch.W4
	b := program.NewBuilder("mvt-" + v.String())
	if v == UVE {
		b.ConfigStream(0, rows2D(aB, w, n, n, n))
		b.ConfigStream(1, repRows(y1B, w, n, n))
		b.ConfigStream(2, scalarRows(x1B, w, n, 1, descriptor.Load))
		b.ConfigStream(3, scalarRows(x1B, w, n, 1, descriptor.Store))
		emitDotRowsUVE(b, "p1", 0, 1, 2, 3, func(pb *program.Builder, sum, carry, out isa.Reg) {
			pb.I(isa.VFAdd(w, out, sum, carry, isa.None))
		})
		// Second kernel (Aᵀ·y2): blocked interchange over unit-stride
		// matrix chunks.
		colUpdateStreamsUVE(b, 4, 5, 6, 7, aB, y2B, x2B, x2B, n)
		emitColUpdateUVE(b, "p2", 4, 5, 6, 7, isa.None)
	} else {
		emitDotRowsBaseline(b, v, "p1", 20, 21, 23, 23, isa.None)
		emitColUpdateBaseline(b, v, "p2", 20, 22, 24, isa.None)
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*(n*n+4*n)), func() error {
		if err := checkF32(h, "x1", x1B, want1, 1e-3); err != nil {
			return err
		}
		return checkF32(h, "x2", x2B, want2, 1e-3)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = y1B
		inst.IntArgs[22] = y2B
		inst.IntArgs[23] = x1B
		inst.IntArgs[24] = x2B
	}
	return finalize(h, inst)
}

// --- G. GEMVER ---

// KGemver is the PolyBench gemver sequence: A += u1·v1ᵀ + u2·v2ᵀ;
// x += β·Aᵀ·y; x += z; w += α·A·x.
var KGemver = register(&Kernel{
	ID: "G", Name: "GEMVER", Domain: "algebra",
	Streams: 17, Loops: 4, Pattern: "2D",
	SVEVectorized: true,
	DefaultSize:   160,
	MaxSize:       1728,
	MinSize:       32,
	SizeStep:      16,
	Build:         buildGemver,
})

func buildGemver(h *mem.Hierarchy, v Variant, n int) *Instance {
	const alpha, beta = 1.5, 1.25
	rng := newLCG(707)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	u1B, u1 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	u2B, u2 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	v1B, v1 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	v2B, v2 := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	yB, yv := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	zB, zv := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	xB, _ := allocF32(h, n, func(int) float64 { return 0 })
	wB, _ := allocF32(h, n, func(int) float64 { return 0 })

	// Reference.
	wantA := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantA[i*n+j] = float64(float32(av[i*n+j]) + float32(u1[i])*float32(v1[j]) + float32(u2[i])*float32(v2[j]))
		}
	}
	wantX := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += wantA[j*n+i] * yv[j]
		}
		wantX[i] = beta*s + zv[i]
	}
	wantW := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += wantA[i*n+j] * wantX[j]
		}
		wantW[i] = alpha * s
	}

	const w = arch.W4
	b := program.NewBuilder("gemver-" + v.String())
	if v == UVE {
		// Phase 1: rank-2 update (6 streams).
		b.ConfigStream(0, rows2D(aB, w, n, n, n))
		b.ConfigStream(1, scalarRows(u1B, w, n, 1, descriptor.Load))
		b.ConfigStream(2, scalarRows(u2B, w, n, 1, descriptor.Load))
		b.ConfigStream(3, repRows(v1B, w, n, n))
		b.ConfigStream(4, repRows(v2B, w, n, n))
		b.ConfigStream(5, descriptor.New(aB, w, descriptor.Store).
			Dim(0, int64(n), 1).Dim(0, int64(n), int64(n)).MustBuild())
		b.Label("p1_row")
		b.I(isa.VBcast(w, isa.V(26), isa.V(1)))
		b.I(isa.VBcast(w, isa.V(25), isa.V(2)))
		b.Label("p1_ch")
		b.I(isa.VFMulAdd(w, isa.V(24), isa.V(26), isa.V(3), isa.V(0)))
		b.I(isa.VFMulAdd(w, isa.V(5), isa.V(25), isa.V(4), isa.V(24)))
		b.I(isa.SBDimNotEnd(0, 0, "p1_ch"))
		b.I(isa.SBNotEnd(0, "p1_row"))
		// Phase 2: x = z + β·Aᵀ·y, blocked interchange with z as the carry.
		b.I(isa.VDup(w, isa.V(23), isa.F(2))) // beta
		colUpdateStreamsUVE(b, 6, 7, 8, 9, aB, yB, zB, xB, n)
		emitColUpdateUVE(b, "p2", 6, 7, 8, 9, isa.V(23))
		// Phase 4 (phase 3 x += z was folded into phase 2's carry-in):
		// w = α·A·x with zero carry — use the w array (zero-initialized) as
		// carry-in, matching PolyBench's w += semantics.
		b.I(isa.VDup(w, isa.V(22), isa.F(1))) // alpha
		b.ConfigStream(10, rows2D(aB, w, n, n, n))
		b.ConfigStream(11, repRows(xB, w, n, n))
		b.ConfigStream(12, scalarRows(wB, w, n, 1, descriptor.Load))
		b.ConfigStream(13, scalarRows(wB, w, n, 1, descriptor.Store))
		emitDotRowsUVE(b, "p4", 10, 11, 12, 13, func(pb *program.Builder, sum, carry, out isa.Reg) {
			pb.I(isa.VFMulAdd(w, out, sum, isa.V(22), carry))
		})
	} else {
		// Phase 1.
		lanes := lanesFor(v, w)
		pred := isa.None
		if v == SVE {
			pred = isa.P(1)
		}
		b.I(isa.Li(isa.X(5), 0))
		b.Label("p1_i")
		b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1)))
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(21)))
		b.I(isa.FLoad(w, isa.F(3), isa.X(14), 0))
		b.I(isa.VDup(w, isa.V(5), isa.F(3))) // u1[i]
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(22)))
		b.I(isa.FLoad(w, isa.F(4), isa.X(14), 0))
		b.I(isa.VDup(w, isa.V(6), isa.F(4))) // u2[i]
		b.I(isa.Li(isa.X(9), 0))
		if v == SVE {
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		} else {
			b.I(isa.Li(isa.X(15), int64(lanes)))
			b.I(isa.Div(isa.X(10), isa.X(1), isa.X(15)))
			b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
		}
		b.Label("p1_j")
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
		b.I(isa.VLoad(w, isa.V(1), isa.X(20), isa.X(12), 0, pred))
		b.I(isa.VLoad(w, isa.V(2), isa.X(23), isa.X(9), 0, pred))
		b.I(isa.VLoad(w, isa.V(3), isa.X(24), isa.X(9), 0, pred))
		b.I(isa.VFMla(w, isa.V(1), isa.V(5), isa.V(2), pred))
		b.I(isa.VFMla(w, isa.V(1), isa.V(6), isa.V(3), pred))
		b.I(isa.VStore(w, isa.X(20), isa.X(12), 0, isa.V(1), pred))
		if v == SVE {
			b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
			b.I(isa.BFirst(isa.P(1), "p1_j"))
		} else {
			b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
			b.I(isa.Blt(isa.X(9), isa.X(10), "p1_j"))
			// n is kept a multiple of the NEON width by the harness.
		}
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "p1_i"))
		// Phase 2: x = z; x += β·Aᵀ·y (interchange form).
		copyVec(b, v, w, "p2c", 27, 26) // x ← z
		b.I(isa.FMv(w, isa.F(5), isa.F(2)))
		emitColUpdateBaseline(b, v, "p2", 20, 25, 26, isa.F(5))
		// Phase 4: w += α·A·x.
		emitDotRowsBaseline(b, v, "p4", 20, 26, 28, 28, isa.F(1))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*(n*n+7*n)), func() error {
		if err := checkF32(h, "A", aB, wantA, 1e-4); err != nil {
			return err
		}
		if err := checkF32(h, "x", xB, wantX, 1e-3); err != nil {
			return err
		}
		return checkF32(h, "w", wB, wantW, 1e-3)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = u1B
		inst.IntArgs[22] = u2B
		inst.IntArgs[23] = v1B
		inst.IntArgs[24] = v2B
		inst.IntArgs[25] = yB
		inst.IntArgs[26] = xB
		inst.IntArgs[27] = zB
		inst.IntArgs[28] = wB
	}
	inst.FPArgs[1] = FPArg{W: w, V: alpha}
	inst.FPArgs[2] = FPArg{W: w, V: beta}
	return finalize(h, inst)
}

// copyVec emits x{dst}[i] = x{src}[i] over n=x1 elements.
func copyVec(b *program.Builder, v Variant, w arch.ElemWidth, tag string, src, dst int) {
	pred := isa.None
	if v == SVE {
		pred = isa.P(1)
	}
	lanes := lanesFor(v, w)
	b.I(isa.Li(isa.X(9), 0))
	if v == SVE {
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
	}
	b.Label(tag + "_l")
	b.I(isa.VLoad(w, isa.V(1), isa.X(src), isa.X(9), 0, pred))
	b.I(isa.VStore(w, isa.X(dst), isa.X(9), 0, isa.V(1), pred))
	if v == SVE {
		b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		b.I(isa.BFirst(isa.P(1), tag+"_l"))
	} else {
		b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
		b.I(isa.Blt(isa.X(9), isa.X(1), tag+"_l"))
	}
}
