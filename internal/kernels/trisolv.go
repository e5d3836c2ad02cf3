package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- H. Trisolv ---

// KTrisolv solves L·x = b for a lower-triangular L (PolyBench trisolv):
// x[i] = (b[i] − Σ_{j<i} L[i][j]·x[j]) / L[i][i]. The UVE version streams
// the triangular L rows with a static size modifier (the paper's Fig 3.B4
// pattern) while x is read through predicated legacy vector loads, because
// x is being produced by the kernel's own output stream (the paper's
// streaming memory model forbids streaming a concurrently-written input).
var KTrisolv = register(&Kernel{
	ID: "H", Name: "Trisolv", Domain: "algebra",
	Streams: 5, Loops: 1, Pattern: "2D+static-mod",
	SVEVectorized: true,
	DefaultSize:   128,
	MaxSize:       2205,
	MinSize:       16,
	Build:         buildTrisolv,
})

func buildTrisolv(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(808)
	lB, lv := allocMatF32(h, n, n, func(i, j int) float64 {
		if j > i {
			return 0
		}
		if j == i {
			return 2 + rng.f32(0.5) // well-conditioned diagonal
		}
		return rng.f32(1) / float64(n)
	})
	bB, bv := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	xB, _ := allocF32(h, n, func(int) float64 { return 0 })

	want := make([]float64, n)
	for i := 0; i < n; i++ {
		s := bv[i]
		for j := 0; j < i; j++ {
			s -= lv[i*n+j] * want[j]
		}
		want[i] = s / lv[i*n+i]
	}

	const w = arch.W4
	b := program.NewBuilder("trisolv-" + v.String())
	if v == UVE {
		// Scalar prologue: x[0] = b[0]/L[0][0].
		b.I(isa.Li(isa.X(20), int64(lB)))
		b.I(isa.Li(isa.X(21), int64(bB)))
		b.I(isa.Li(isa.X(22), int64(xB)))
		b.I(isa.FLoad(w, isa.F(2), isa.X(21), 0))
		b.I(isa.FLoad(w, isa.F(3), isa.X(20), 0))
		b.I(isa.FDiv(w, isa.F(4), isa.F(2), isa.F(3)))
		b.I(isa.FStore(w, isa.X(22), 0, isa.F(4)))
		// Streams over rows 1..N-1. The triangular row lengths 1,2,…,N-1
		// come from a static size modifier (paper Fig 3.B4).
		dL := descriptor.New(lB+uint64(4*n), w, descriptor.Load).
			Dim(0, 0, 1).
			Dim(0, int64(n-1), int64(n)).
			Mod(descriptor.TargetSize, descriptor.Add, 1, int64(n-1)).
			MustBuild()
		dB := scalarRows(bB+4, w, n-1, 1, descriptor.Load)
		dDiag := scalarRows(lB+uint64(4*(n+1)), w, n-1, n+1, descriptor.Load)
		dX := scalarRows(xB+4, w, n-1, 1, descriptor.Store)
		b.ConfigStream(0, dL)
		b.ConfigStream(1, dB)
		b.ConfigStream(2, dDiag)
		b.ConfigStream(3, dX)
		b.I(isa.Li(isa.X(8), 1)) // i
		b.Label("row")
		b.I(isa.VDupX(w, isa.V(28), isa.X(0)))
		b.I(isa.Li(isa.X(9), 0))
		b.Label("ch")
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(8)))
		b.I(isa.VLoad(w, isa.V(27), isa.X(22), isa.X(9), 0, isa.P(1)))
		b.I(isa.VFMul(w, isa.V(26), isa.V(0), isa.V(27), isa.None))
		b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(26), isa.None))
		b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
		b.I(isa.SBDimNotEnd(0, 0, "ch"))
		b.I(isa.VFAddV(w, isa.V(26), isa.V(28)))
		b.I(isa.VFSub(w, isa.V(25), isa.V(1), isa.V(26), isa.None))
		b.I(isa.VFDiv(w, isa.V(3), isa.V(25), isa.V(2), isa.None))
		b.I(isa.AddI(isa.X(8), isa.X(8), 1))
		b.I(isa.SBNotEnd(0, "row"))
	} else {
		// Baselines: per-row predicated dot over j<i, scalar solve step.
		lanes := lanesFor(v, w)
		b.I(isa.Li(isa.X(5), 0)) // i
		b.Label("row")
		b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1))) // i*N
		b.I(isa.VDupX(w, isa.V(3), isa.X(0)))
		b.I(isa.Li(isa.X(9), 0)) // j
		if v == SVE {
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(5)))
			b.I(isa.BFirst(isa.P(1), "jloop"))
			b.I(isa.J("jdone"))
			b.Label("jloop")
			b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
			b.I(isa.VLoad(w, isa.V(1), isa.X(20), isa.X(12), 0, isa.P(1)))
			b.I(isa.VLoad(w, isa.V(2), isa.X(22), isa.X(9), 0, isa.P(1)))
			b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), isa.P(1)))
			b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(5)))
			b.I(isa.BFirst(isa.P(1), "jloop"))
			b.Label("jdone")
			b.I(isa.VFAddVF(w, isa.F(20), isa.V(3)))
		} else {
			b.I(isa.Li(isa.X(15), int64(lanes)))
			b.I(isa.Div(isa.X(10), isa.X(5), isa.X(15)))
			b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
			b.I(isa.Beq(isa.X(10), isa.X(0), "jtail"))
			b.Label("jloop")
			b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
			b.I(isa.VLoad(w, isa.V(1), isa.X(20), isa.X(12), 0, isa.None))
			b.I(isa.VLoad(w, isa.V(2), isa.X(22), isa.X(9), 0, isa.None))
			b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), isa.None))
			b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
			b.I(isa.Blt(isa.X(9), isa.X(10), "jloop"))
			b.Label("jtail")
			b.I(isa.VFAddVF(w, isa.F(20), isa.V(3)))
			b.I(isa.Bge(isa.X(9), isa.X(5), "jdone"))
			b.Label("jtl")
			b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
			b.I(isa.SllI(isa.X(13), isa.X(12), 2))
			b.I(isa.Add(isa.X(13), isa.X(13), isa.X(20)))
			b.I(isa.FLoad(w, isa.F(21), isa.X(13), 0))
			b.I(isa.SllI(isa.X(13), isa.X(9), 2))
			b.I(isa.Add(isa.X(13), isa.X(13), isa.X(22)))
			b.I(isa.FLoad(w, isa.F(22), isa.X(13), 0))
			b.I(isa.FMadd(w, isa.F(20), isa.F(21), isa.F(22), isa.F(20)))
			b.I(isa.AddI(isa.X(9), isa.X(9), 1))
			b.I(isa.Blt(isa.X(9), isa.X(5), "jtl"))
			b.Label("jdone")
		}
		if v == NEON {
			// Scalar accumulator already folded into f20 above.
			_ = lanes
		}
		// x[i] = (b[i] − sum) / L[i][i]
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(21)))
		b.I(isa.FLoad(w, isa.F(23), isa.X(14), 0))
		b.I(isa.FSub(w, isa.F(24), isa.F(23), isa.F(20)))
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(5)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(25), isa.X(12), 0))
		b.I(isa.FDiv(w, isa.F(26), isa.F(24), isa.F(25)))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(22)))
		b.I(isa.FStore(w, isa.X(14), 0, isa.F(26)))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "row"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*(n*n+2*n)), func() error {
		return checkF32(h, "x", xB, want, 1e-3)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = lB
		inst.IntArgs[21] = bB
		inst.IntArgs[22] = xB
	}
	return finalize(h, inst)
}
