package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- I. Jacobi-1D ---

// KJacobi1D runs the PolyBench jacobi-1d pair of sweeps:
// B[i] = (A[i-1]+A[i]+A[i+1])/3, then A[i] = (B[i-1]+B[i]+B[i+1])/3.
var KJacobi1D = register(&Kernel{
	ID: "I", Name: "Jacobi-1D", Domain: "stencil",
	Streams: 8, Loops: 2, Pattern: "1D",
	SVEVectorized: true,
	DefaultSize:   1 << 15,
	MaxSize:       1_352_083,
	MinSize:       16,
	Build:         buildJacobi1D,
})

func buildJacobi1D(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(909)
	aB, av := allocF32(h, n, func(int) float64 { return rng.f32(10) })
	bB, bv := allocF32(h, n, func(int) float64 { return rng.f32(10) })

	third := float64(float32(1.0 / 3.0))
	wantB := append([]float64(nil), bv...)
	for i := 1; i < n-1; i++ {
		wantB[i] = float64((float32(av[i-1]) + float32(av[i]) + float32(av[i+1])) * float32(third))
	}
	wantA := append([]float64(nil), av...)
	for i := 1; i < n-1; i++ {
		wantA[i] = float64((float32(wantB[i-1]) + float32(wantB[i]) + float32(wantB[i+1])) * float32(third))
	}

	const w = arch.W4
	inner := n - 2
	emit := func(b *program.Builder, ww arch.ElemWidth, pred isa.Reg, in []isa.Reg, out isa.Reg) {
		b.I(isa.VFAdd(ww, isa.V(21), in[0], in[1], pred))
		b.I(isa.VFAdd(ww, isa.V(22), isa.V(21), in[2], pred))
		b.I(isa.VFMul(ww, out, isa.V(22), isa.V(9), pred))
	}
	emitScalar := func(b *program.Builder, ww arch.ElemWidth, in []isa.Reg, out isa.Reg) {
		b.I(isa.FAdd(ww, isa.F(21), in[0], in[1]))
		b.I(isa.FAdd(ww, isa.F(22), isa.F(21), in[2]))
		b.I(isa.FMul(ww, out, isa.F(22), isa.F(1)))
	}
	var bld *program.Builder
	if v == UVE {
		b := program.NewBuilder("jacobi1d-UVE")
		b.I(isa.VDup(w, isa.V(9), isa.F(1)))
		cfg := func(u int, src, dst uint64) {
			b.ConfigStream(u, ld1(src, w, inner))
			b.ConfigStream(u+1, ld1(src+4, w, inner))
			b.ConfigStream(u+2, ld1(src+8, w, inner))
			b.ConfigStream(u+3, st1(dst+4, w, inner))
		}
		cfg(0, aB, bB)
		b.Label("s1")
		emit(b, w, isa.None, []isa.Reg{isa.V(0), isa.V(1), isa.V(2)}, isa.V(3))
		b.I(isa.SBNotEnd(0, "s1"))
		cfg(4, bB, aB)
		b.Label("s2")
		emit(b, w, isa.None, []isa.Reg{isa.V(4), isa.V(5), isa.V(6)}, isa.V(7))
		b.I(isa.SBNotEnd(4, "s2"))
		b.I(isa.Halt())
		bld = b
	} else {
		b := program.NewBuilder("jacobi1d-" + v.String())
		b.I(isa.VDup(w, isa.V(9), isa.F(1)))
		// Sweep 1: args x20,x21,x22 = A-1,A,A+1 bases; out x23 = B+4.
		emitVecLoop(b, v, w, "s1", []int{20, 21, 22}, 23,
			func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg) { emit(pb, w, pred, in, o) },
			func(pb *program.Builder, in []isa.Reg, o isa.Reg) { emitScalar(pb, w, in, o) })
		emitVecLoop(b, v, w, "s2", []int{24, 25, 26}, 27,
			func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg) { emit(pb, w, pred, in, o) },
			func(pb *program.Builder, in []isa.Reg, o isa.Reg) { emitScalar(pb, w, in, o) })
		b.I(isa.Halt())
		bld = b
	}
	inst := instance(bld, int64(8*n), func() error {
		if err := checkF32(h, "B", bB, wantB, 1e-5); err != nil {
			return err
		}
		return checkF32(h, "A", aB, wantA, 1e-5)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(inner)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = aB + 4
		inst.IntArgs[22] = aB + 8
		inst.IntArgs[23] = bB + 4
		inst.IntArgs[24] = bB
		inst.IntArgs[25] = bB + 4
		inst.IntArgs[26] = bB + 8
		inst.IntArgs[27] = aB + 4
	}
	inst.FPArgs[1] = FPArg{W: w, V: third}
	return finalize(h, inst)
}

// --- J. Jacobi-2D ---

// KJacobi2D runs the PolyBench jacobi-2d pair of 5-point sweeps.
var KJacobi2D = register(&Kernel{
	ID: "J", Name: "Jacobi-2D", Domain: "stencil",
	Streams: 12, Loops: 2, Pattern: "2D",
	SVEVectorized: true,
	DefaultSize:   128,
	MaxSize:       1153,
	MinSize:       16,
	Build:         buildJacobi2D,
})

// interior2D is the (n-2)×(n-2) interior of an n×n matrix, shifted by
// (di, dj) elements.
func interior2D(base uint64, w arch.ElemWidth, n, di, dj int, kind descriptor.Kind) *descriptor.Descriptor {
	origin := base + uint64(4*((1+di)*n+1+dj))
	return descriptor.New(origin, w, kind).
		Dim(0, int64(n-2), 1).
		Dim(0, int64(n-2), int64(n)).
		MustBuild()
}

func buildJacobi2D(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(1010)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(10) })
	bB, bv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(10) })

	const c5 = 0.2
	sweep := func(dst, src []float64) {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				dst[i*n+j] = float64(float32(c5) * (float32(src[i*n+j]) + float32(src[i*n+j-1]) +
					float32(src[i*n+j+1]) + float32(src[(i-1)*n+j]) + float32(src[(i+1)*n+j])))
			}
		}
	}
	wantB := append([]float64(nil), bv...)
	sweep(wantB, av)
	wantA := append([]float64(nil), av...)
	sweep(wantA, wantB)

	const w = arch.W4
	b := program.NewBuilder("jacobi2d-" + v.String())
	// The constant lives above the stream-register range (streams use
	// u0..u11 across the two sweeps).
	b.I(isa.VDup(w, isa.V(19), isa.F(1)))
	if v == UVE {
		cfg := func(u int, src, dst uint64) {
			b.ConfigStream(u, interior2D(src, w, n, 0, 0, descriptor.Load))
			b.ConfigStream(u+1, interior2D(src, w, n, 0, -1, descriptor.Load))
			b.ConfigStream(u+2, interior2D(src, w, n, 0, 1, descriptor.Load))
			b.ConfigStream(u+3, interior2D(src, w, n, -1, 0, descriptor.Load))
			b.ConfigStream(u+4, interior2D(src, w, n, 1, 0, descriptor.Load))
			b.ConfigStream(u+5, interior2D(dst, w, n, 0, 0, descriptor.Store))
		}
		body := func(u int) {
			b.I(isa.VFAdd(w, isa.V(20), isa.V(u), isa.V(u+1), isa.None))
			b.I(isa.VFAdd(w, isa.V(21), isa.V(u+2), isa.V(u+3), isa.None))
			b.I(isa.VFAdd(w, isa.V(22), isa.V(20), isa.V(21), isa.None))
			b.I(isa.VFAdd(w, isa.V(23), isa.V(22), isa.V(u+4), isa.None))
			b.I(isa.VFMul(w, isa.V(u+5), isa.V(23), isa.V(19), isa.None))
		}
		cfg(0, aB, bB)
		b.Label("s1")
		body(0)
		b.I(isa.SBNotEnd(0, "s1"))
		cfg(6, bB, aB)
		b.Label("s2")
		body(6)
		b.I(isa.SBNotEnd(6, "s2"))
	} else {
		// Baselines: outer i loop, inner vectorized j over the row interior
		// using immediate-offset addressing for the four neighbors.
		lanes := lanesFor(v, w)
		pred := isa.None
		if v == SVE {
			pred = isa.P(1)
		}
		phase := func(tag string, src, dst int) {
			b.I(isa.Li(isa.X(5), 1)) // i
			b.Label(tag + "_i")
			b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1)))
			b.I(isa.AddI(isa.X(8), isa.X(8), 1)) // i*n+1
			b.I(isa.Li(isa.X(9), 0))             // j-1 within interior
			if v == SVE {
				b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(2)))
			} else {
				b.I(isa.Li(isa.X(15), int64(lanes)))
				b.I(isa.Div(isa.X(10), isa.X(2), isa.X(15)))
				b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
				b.I(isa.Beq(isa.X(10), isa.X(0), tag+"_jt"))
			}
			b.Label(tag + "_j")
			b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
			b.I(isa.VLoad(w, isa.V(1), isa.X(src), isa.X(12), 0, pred))
			b.I(isa.VLoad(w, isa.V(2), isa.X(src), isa.X(12), -1, pred))
			b.I(isa.VLoad(w, isa.V(3), isa.X(src), isa.X(12), 1, pred))
			b.I(isa.VLoad(w, isa.V(4), isa.X(src), isa.X(12), -int64(n), pred))
			b.I(isa.VLoad(w, isa.V(5), isa.X(src), isa.X(12), int64(n), pred))
			b.I(isa.VFAdd(w, isa.V(6), isa.V(1), isa.V(2), pred))
			b.I(isa.VFAdd(w, isa.V(7), isa.V(3), isa.V(4), pred))
			b.I(isa.VFAdd(w, isa.V(6), isa.V(6), isa.V(7), pred))
			b.I(isa.VFAdd(w, isa.V(6), isa.V(6), isa.V(5), pred))
			b.I(isa.VFMul(w, isa.V(6), isa.V(6), isa.V(19), pred))
			b.I(isa.VStore(w, isa.X(dst), isa.X(12), 0, isa.V(6), pred))
			if v == SVE {
				b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
				b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(2)))
				b.I(isa.BFirst(isa.P(1), tag+"_j"))
			} else {
				b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
				b.I(isa.Blt(isa.X(9), isa.X(10), tag+"_j"))
				b.Label(tag + "_jt")
				b.I(isa.Bge(isa.X(9), isa.X(2), tag+"_jd"))
				b.Label(tag + "_jtl")
				b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
				b.I(isa.SllI(isa.X(13), isa.X(12), 2))
				b.I(isa.Add(isa.X(13), isa.X(13), isa.X(src)))
				b.I(isa.FLoad(w, isa.F(2), isa.X(13), 0))
				b.I(isa.FLoad(w, isa.F(3), isa.X(13), -4))
				b.I(isa.FLoad(w, isa.F(4), isa.X(13), 4))
				b.I(isa.FLoad(w, isa.F(5), isa.X(13), -4*int64(n)))
				b.I(isa.FLoad(w, isa.F(6), isa.X(13), 4*int64(n)))
				b.I(isa.FAdd(w, isa.F(7), isa.F(2), isa.F(3)))
				b.I(isa.FAdd(w, isa.F(8), isa.F(4), isa.F(5)))
				b.I(isa.FAdd(w, isa.F(7), isa.F(7), isa.F(8)))
				b.I(isa.FAdd(w, isa.F(7), isa.F(7), isa.F(6)))
				b.I(isa.FMul(w, isa.F(7), isa.F(7), isa.F(1)))
				b.I(isa.SllI(isa.X(13), isa.X(12), 2))
				b.I(isa.Add(isa.X(13), isa.X(13), isa.X(dst)))
				b.I(isa.FStore(w, isa.X(13), 0, isa.F(7)))
				b.I(isa.AddI(isa.X(9), isa.X(9), 1))
				b.I(isa.Blt(isa.X(9), isa.X(2), tag+"_jtl"))
				b.Label(tag + "_jd")
			}
			b.I(isa.AddI(isa.X(5), isa.X(5), 1))
			b.I(isa.Blt(isa.X(5), isa.X(3), tag+"_i"))
		}
		phase("s1", 20, 21)
		phase("s2", 21, 20)
	}
	b.I(isa.Halt())

	inst := instance(b, int64(8*n*n), func() error {
		if err := checkF32(h, "B", bB, wantB, 1e-4); err != nil {
			return err
		}
		return checkF32(h, "A", aB, wantA, 1e-4)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[2] = uint64(n - 2)
		inst.IntArgs[3] = uint64(n - 1)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = bB
	}
	inst.FPArgs[1] = FPArg{W: w, V: c5}
	return finalize(h, inst)
}

// reference computation for Seidel: EXACTLY the evaluation order the
// kernels use (top/bottom column sums, then the middle row).
func refSeidel(a []float64, n int) []float64 {
	out := append([]float64(nil), a...)
	inv9 := float32(1.0 / 9.0)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			cs := func(c int) float32 {
				return float32(out[(i-1)*n+c]) + float32(out[(i+1)*n+c])
			}
			tb := cs(j-1) + cs(j) + cs(j+1)
			mid := float32(out[i*n+j-1]) + float32(out[i*n+j]) + float32(out[i*n+j+1])
			out[i*n+j] = float64((tb + mid) * inv9)
		}
	}
	return out
}

// --- R. Seidel-2D ---

// KSeidel is the in-place Gauss-Seidel 9-point sweep. Its loop-carried
// dependences defeat vectorization (the paper's ARM compiler emitted scalar
// code, and UVE processes it scalar too), but UVE still streams the
// not-yet-written south row and the output, removing indexing overhead.
var KSeidel = register(&Kernel{
	ID: "R", Name: "Seidel-2D", Domain: "stencil",
	Streams: 10, Loops: 1, Pattern: "2D",
	SVEVectorized: false,
	DefaultSize:   64,
	MaxSize:       1739,
	MinSize:       16,
	Build:         buildSeidel,
})

func buildSeidel(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(1111)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(10) })
	want := refSeidel(av, n)

	const w = arch.W4
	b := program.NewBuilder("seidel-" + v.String())
	if v == UVE {
		// Streams: south-east elements A[i+1][j+1] (read exactly once, not
		// yet written this sweep) as 1-element chunks, and the output.
		dSE := descriptor.New(aB+uint64(4*(2*n+2)), w, descriptor.Load).
			Dim(0, 1, 1).
			Dim(0, int64(n-2), 1).
			Dim(0, int64(n-2), int64(n)).
			MustBuild()
		dOut := descriptor.New(aB+uint64(4*(n+1)), w, descriptor.Store).
			Dim(0, 1, 1).
			Dim(0, int64(n-2), 1).
			Dim(0, int64(n-2), int64(n)).
			MustBuild()
		b.I(isa.Li(isa.X(20), int64(aB)))
		b.ConfigStream(0, dSE)
		b.ConfigStream(1, dOut)
		b.I(isa.Li(isa.X(5), 1)) // i
		b.Label("i")
		// Row prologue: column sums tb(j=0), tb(j=1); middle carries.
		b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1)))
		b.I(isa.SllI(isa.X(8), isa.X(8), 2))
		b.I(isa.Add(isa.X(8), isa.X(8), isa.X(20))) // &A[i][0]
		colsum := func(dst isa.Reg, off int64) {
			b.I(isa.FLoad(w, isa.F(20), isa.X(8), off-4*int64(n)))
			b.I(isa.FLoad(w, isa.F(21), isa.X(8), off+4*int64(n)))
			b.I(isa.FAdd(w, dst, isa.F(20), isa.F(21)))
		}
		colsum(isa.F(10), 0)                      // tb0
		colsum(isa.F(11), 4)                      // tb1
		b.I(isa.FLoad(w, isa.F(12), isa.X(8), 0)) // w (updated A[i][0] = boundary)
		b.I(isa.FLoad(w, isa.F(13), isa.X(8), 4)) // c = A[i][1] old
		b.I(isa.Li(isa.X(9), 1))                  // j
		b.Label("j")
		// tb2 = A[i-1][j+1] (load) + A[i+1][j+1] (stream).
		b.I(isa.SllI(isa.X(12), isa.X(9), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(8))) // &A[i][j]
		b.I(isa.FLoad(w, isa.F(20), isa.X(12), 4-4*int64(n)))
		b.I(isa.VFAddVF(w, isa.F(21), isa.V(0))) // stream element
		b.I(isa.FAdd(w, isa.F(14), isa.F(20), isa.F(21)))
		b.I(isa.FLoad(w, isa.F(15), isa.X(12), 4)) // e = A[i][j+1] old
		b.I(isa.FAdd(w, isa.F(22), isa.F(10), isa.F(11)))
		b.I(isa.FAdd(w, isa.F(22), isa.F(22), isa.F(14)))
		b.I(isa.FAdd(w, isa.F(23), isa.F(12), isa.F(13)))
		b.I(isa.FAdd(w, isa.F(23), isa.F(23), isa.F(15)))
		b.I(isa.FAdd(w, isa.F(24), isa.F(22), isa.F(23)))
		b.I(isa.FMul(w, isa.F(25), isa.F(24), isa.F(1)))
		b.I(isa.VDup(w, isa.V(1), isa.F(25))) // store via the output stream
		// Rotate carries.
		b.I(isa.FMv(w, isa.F(10), isa.F(11)))
		b.I(isa.FMv(w, isa.F(11), isa.F(14)))
		b.I(isa.FMv(w, isa.F(12), isa.F(25))) // w ← updated value
		b.I(isa.FMv(w, isa.F(13), isa.F(15))) // c ← old east
		b.I(isa.AddI(isa.X(9), isa.X(9), 1))
		b.I(isa.SBDimNotEnd(0, 1, "j"))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.SBNotEnd(0, "i"))
	} else {
		// Scalar baseline (the paper's compiler did not vectorize Seidel).
		b.I(isa.Li(isa.X(5), 1))
		b.Label("i")
		b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1)))
		b.I(isa.SllI(isa.X(8), isa.X(8), 2))
		b.I(isa.Add(isa.X(8), isa.X(8), isa.X(20)))
		b.I(isa.Li(isa.X(9), 1))
		b.Label("j")
		b.I(isa.SllI(isa.X(12), isa.X(9), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(8)))
		nn := 4 * int64(n)
		// Column sums of the top and bottom rows, then the middle row, in
		// the same order as the UVE code and the reference.
		b.I(isa.FLoad(w, isa.F(2), isa.X(12), -4-nn))
		b.I(isa.FLoad(w, isa.F(3), isa.X(12), -4+nn))
		b.I(isa.FAdd(w, isa.F(10), isa.F(2), isa.F(3)))
		b.I(isa.FLoad(w, isa.F(2), isa.X(12), -nn))
		b.I(isa.FLoad(w, isa.F(3), isa.X(12), nn))
		b.I(isa.FAdd(w, isa.F(11), isa.F(2), isa.F(3)))
		b.I(isa.FLoad(w, isa.F(2), isa.X(12), 4-nn))
		b.I(isa.FLoad(w, isa.F(3), isa.X(12), 4+nn))
		b.I(isa.FAdd(w, isa.F(14), isa.F(2), isa.F(3)))
		b.I(isa.FAdd(w, isa.F(22), isa.F(10), isa.F(11)))
		b.I(isa.FAdd(w, isa.F(22), isa.F(22), isa.F(14)))
		b.I(isa.FLoad(w, isa.F(12), isa.X(12), -4))
		b.I(isa.FLoad(w, isa.F(13), isa.X(12), 0))
		b.I(isa.FLoad(w, isa.F(15), isa.X(12), 4))
		b.I(isa.FAdd(w, isa.F(23), isa.F(12), isa.F(13)))
		b.I(isa.FAdd(w, isa.F(23), isa.F(23), isa.F(15)))
		b.I(isa.FAdd(w, isa.F(24), isa.F(22), isa.F(23)))
		b.I(isa.FMul(w, isa.F(25), isa.F(24), isa.F(1)))
		b.I(isa.FStore(w, isa.X(12), 0, isa.F(25)))
		b.I(isa.AddI(isa.X(9), isa.X(9), 1))
		b.I(isa.Blt(isa.X(9), isa.X(2), "j"))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(2), "i"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*n*n), func() error {
		return checkF32(h, "A", aB, want, 1e-4)
	})
	inst.IntArgs[1] = uint64(n)
	inst.IntArgs[2] = uint64(n - 1)
	inst.IntArgs[20] = aB
	inst.FPArgs[1] = FPArg{W: w, V: float64(float32(1.0 / 9.0))}
	return finalize(h, inst)
}
