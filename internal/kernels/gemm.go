package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// allocMatF32 allocates a rows×cols row-major float32 matrix.
func allocMatF32(h *mem.Hierarchy, rows, cols int, fill func(i, j int) float64) (uint64, []float64) {
	base := h.Mem.Alloc(4*rows*cols, arch.LineSize)
	vals := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := float64(float32(fill(i, j)))
			vals[i*cols+j] = v
			h.Mem.WriteFloat(base+uint64(4*(i*cols+j)), arch.W4, v)
		}
	}
	return base, vals
}

// refGemm computes C = A·B in float32 with the k-ordered accumulation every
// variant uses, so comparisons are near-exact.
func refGemm(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := float32(0)
			for k := 0; k < n; k++ {
				acc += float32(a[i*n+k]) * float32(b[k*n+j])
			}
			c[i*n+j] = float64(acc)
		}
	}
	return c
}

// emitGemmUVE appends one C = A·B matrix multiply using four streams
// starting at register u0: B blocks (4-D), A scalars (4-D), C output (3-D).
// The inner k-loop is three instructions (broadcast, fused multiply-add and
// one dimension-conditional branch).
func emitGemmUVE(b *program.Builder, tag string, u0 int, aB, bB, cB uint64, n int) {
	const w = arch.W4
	lanes := arch.LanesFor(arch.MaxVecBytes, w)
	nb := n / lanes
	if nb*lanes != n {
		b.Errorf("gemm: N=%d must be a multiple of the vector lane count %d", n, lanes)
	}
	n64, l64, nb64 := int64(n), int64(lanes), int64(nb)
	dB := descriptor.New(bB, w, descriptor.Load).
		Dim(0, l64, 1).    // j within block
		Dim(0, n64, n64).  // k rows
		Dim(0, nb64, l64). // jb blocks
		Dim(0, n64, 0).    // repeated for every i
		MustBuild()
	dA := descriptor.New(aB, w, descriptor.Load).
		Dim(0, 1, 1).     // one scalar per (i,k)
		Dim(0, n64, 1).   // k
		Dim(0, nb64, 0).  // repeated per block
		Dim(0, n64, n64). // i rows
		MustBuild()
	dC := descriptor.New(cB, w, descriptor.Store).
		Dim(0, l64, 1).
		Dim(0, nb64, l64).
		Dim(0, n64, n64).
		MustBuild()
	uB, uA, uC := u0, u0+1, u0+2
	b.ConfigStream(uB, dB)
	b.ConfigStream(uA, dA)
	b.ConfigStream(uC, dC)
	b.Label(tag + "_jb")
	b.I(isa.VDupX(w, isa.V(28), isa.X(0))) // acc = 0
	b.Label(tag + "_k")
	// Multiply and accumulate separately (the paper's Fig 4 idiom): the
	// dependent chain is the 2-cycle add, not a 4-cycle FMA.
	b.I(isa.VBcast(w, isa.V(29), isa.V(uA)))
	b.I(isa.VFMul(w, isa.V(27), isa.V(29), isa.V(uB), isa.None))
	b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(27), isa.None))
	b.I(isa.SBDimNotEnd(uB, 1, tag+"_k"))
	b.I(isa.VMove(w, isa.V(uC), isa.V(28)))
	b.I(isa.SBNotEnd(uB, tag+"_jb"))
}

// emitGemmBaseline appends one C = A·B multiply in SVE (whilelt-predicated)
// or NEON (fixed-width) style. Matrix base addresses live in argument
// registers regA/regB/regC; N is in x1.
func emitGemmBaseline(b *program.Builder, v Variant, tag string, regA, regB, regC int) {
	const w = arch.W4
	pred := isa.None
	if v == SVE {
		pred = isa.P(1)
	}
	lanes := lanesFor(v, w)
	b.I(isa.Li(isa.X(5), 0)) // i
	b.Label(tag + "_i")
	b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1))) // i*N
	b.I(isa.Li(isa.X(6), 0))                   // jb
	if v == SVE {
		b.I(isa.Whilelt(w, isa.P(1), isa.X(6), isa.X(1)))
	}
	b.Label(tag + "_jb")
	b.I(isa.VDupX(w, isa.V(3), isa.X(0))) // acc = 0
	b.I(isa.Li(isa.X(7), 0))              // k
	b.I(isa.Mv(isa.X(11), isa.X(6)))      // bidx = jb
	b.Label(tag + "_k")
	b.I(isa.Add(isa.X(12), isa.X(8), isa.X(7))) // i*N + k
	b.I(isa.SllI(isa.X(13), isa.X(12), 2))
	b.I(isa.Add(isa.X(13), isa.X(13), isa.X(regA)))
	b.I(isa.FLoad(w, isa.F(2), isa.X(13), 0)) // A[i][k] (ld1r-style)
	b.I(isa.VDup(w, isa.V(1), isa.F(2)))
	b.I(isa.VLoad(w, isa.V(2), isa.X(regB), isa.X(11), 0, pred))
	b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), pred))
	b.I(isa.Add(isa.X(11), isa.X(11), isa.X(1))) // bidx += N
	b.I(isa.AddI(isa.X(7), isa.X(7), 1))
	b.I(isa.Blt(isa.X(7), isa.X(1), tag+"_k"))
	b.I(isa.Add(isa.X(12), isa.X(8), isa.X(6)))
	b.I(isa.VStore(w, isa.X(regC), isa.X(12), 0, isa.V(3), pred))
	if v == SVE {
		b.I(isa.IncVL(w, isa.X(6), isa.X(6)))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(6), isa.X(1)))
		b.I(isa.BFirst(isa.P(1), tag+"_jb"))
	} else {
		b.I(isa.AddI(isa.X(6), isa.X(6), int64(lanes)))
		b.I(isa.Blt(isa.X(6), isa.X(1), tag+"_jb"))
	}
	b.I(isa.AddI(isa.X(5), isa.X(5), 1))
	b.I(isa.Blt(isa.X(5), isa.X(1), tag+"_i"))
}

// --- D. GEMM ---

// KGemm is C = A·B over N×N float32 matrices.
var KGemm = register(&Kernel{
	ID: "D", Name: "GEMM", Domain: "BLAS",
	Streams: 4, Loops: 3, Pattern: "1-4D",
	SVEVectorized: true,
	DefaultSize:   96,
	MaxSize:       544,
	MinSize:       32,
	SizeStep:      16,
	Build:         buildGemm,
})

func buildGemm(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(404)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	bB, bv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	cB := h.Mem.Alloc(4*n*n, arch.LineSize)

	b := program.NewBuilder("gemm-" + v.String())
	if v == UVE {
		emitGemmUVE(b, "g", 0, aB, bB, cB, n)
	} else {
		emitGemmBaseline(b, v, "g", 20, 21, 22)
	}
	b.I(isa.Halt())
	inst := instance(b, int64(12*n*n), func() error {
		return checkF32(h, "C", cB, refGemm(av, bv, n), 1e-4)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = bB
		inst.IntArgs[22] = cB
	}
	return finalize(h, inst)
}

// --- E. 3MM ---

// K3mm is E = A·B; F = C·D; G = E·F (PolyBench 3mm).
var K3mm = register(&Kernel{
	ID: "E", Name: "3MM", Domain: "algebra",
	Streams: 9, Loops: 3, Pattern: "4D",
	SVEVectorized: true,
	DefaultSize:   64,
	MaxSize:       352,
	MinSize:       32,
	SizeStep:      16,
	Build:         build3mm,
})

func build3mm(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(505)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	bB, bv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	cB, cv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	dB, dv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	eB := h.Mem.Alloc(4*n*n, arch.LineSize)
	fB := h.Mem.Alloc(4*n*n, arch.LineSize)
	gB := h.Mem.Alloc(4*n*n, arch.LineSize)

	b := program.NewBuilder("3mm-" + v.String())
	if v == UVE {
		emitGemmUVE(b, "p1", 0, aB, bB, eB, n)
		emitGemmUVE(b, "p2", 3, cB, dB, fB, n)
		emitGemmUVE(b, "p3", 6, eB, fB, gB, n)
	} else {
		emitGemmBaseline(b, v, "p1", 20, 21, 24)
		emitGemmBaseline(b, v, "p2", 22, 23, 25)
		emitGemmBaseline(b, v, "p3", 24, 25, 26)
	}
	b.I(isa.Halt())
	inst := instance(b, int64(28*n*n), func() error {
		ev := refGemm(av, bv, n)
		fv := refGemm(cv, dv, n)
		gv := refGemm(ev, fv, n)
		if err := checkF32(h, "E", eB, ev, 1e-4); err != nil {
			return err
		}
		if err := checkF32(h, "F", fB, fv, 1e-4); err != nil {
			return err
		}
		return checkF32(h, "G", gB, gv, 2e-4)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = bB
		inst.IntArgs[22] = cB
		inst.IntArgs[23] = dB
		inst.IntArgs[24] = eB
		inst.IntArgs[25] = fB
		inst.IntArgs[26] = gB
	}
	return finalize(h, inst)
}

// UnrolledGemmUVE builds the Fig 8.E ablation: the UVE GEMM with the inner
// k-loop unrolled by the given factor (1, 2, 4 or 8).
func UnrolledGemmUVE(h *mem.Hierarchy, n, unroll int) *Instance {
	rng := newLCG(404)
	aB, av := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	bB, bv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	cB := h.Mem.Alloc(4*n*n, arch.LineSize)

	const w = arch.W4
	b := program.NewBuilder("gemm-uve-unroll")
	if unroll <= 0 || n%unroll != 0 {
		b.Errorf("unrolled gemm: N=%d must be divisible by the unroll factor %d", n, unroll)
	}
	lanes := arch.LanesFor(arch.MaxVecBytes, w)
	nb := n / lanes
	n64, l64, nb64 := int64(n), int64(lanes), int64(nb)
	dB := descriptor.New(bB, w, descriptor.Load).
		Dim(0, l64, 1).Dim(0, n64, n64).Dim(0, nb64, l64).Dim(0, n64, 0).MustBuild()
	dA := descriptor.New(aB, w, descriptor.Load).
		Dim(0, 1, 1).Dim(0, n64, 1).Dim(0, nb64, 0).Dim(0, n64, n64).MustBuild()
	dC := descriptor.New(cB, w, descriptor.Store).
		Dim(0, l64, 1).Dim(0, nb64, l64).Dim(0, n64, n64).MustBuild()
	b.ConfigStream(0, dB)
	b.ConfigStream(1, dA)
	b.ConfigStream(2, dC)
	b.Label("jb")
	// Independent partial accumulators break the FMA dependence chain.
	for uacc := 0; uacc < unroll; uacc++ {
		b.I(isa.VDupX(w, isa.V(20+uacc), isa.X(0)))
	}
	b.Label("k")
	// The unrolling ablation uses the fused-multiply-add form: with no
	// unrolling its 4-cycle accumulate chain limits throughput, and each
	// doubling of independent accumulators halves the exposed latency —
	// the effect Fig 8.E measures.
	for uacc := 0; uacc < unroll; uacc++ {
		b.I(isa.VBcast(w, isa.V(29), isa.V(1)))
		b.I(isa.VFMla(w, isa.V(20+uacc), isa.V(29), isa.V(0), isa.None))
	}
	b.I(isa.SBDimNotEnd(0, 1, "k"))
	for uacc := 1; uacc < unroll; uacc++ {
		b.I(isa.VFAdd(w, isa.V(20), isa.V(20), isa.V(20+uacc), isa.None))
	}
	b.I(isa.VMove(w, isa.V(2), isa.V(20)))
	b.I(isa.SBNotEnd(0, "jb"))
	b.I(isa.Halt())

	return finalize(h, instance(b, int64(12*n*n), func() error {
		return checkF32(h, "C", cB, refGemm(av, bv, n), 1e-3)
	}))
}
