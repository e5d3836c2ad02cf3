package kernels

import (
	"math"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- L. HACCmk ---

// KHaccmk is the HACC n-body force kernel (CORAL): for every particle i,
// accumulate the softened gravitational pull of all particles,
// f = Δ / (r² + ε)^(3/2), into (fx,fy,fz).
var KHaccmk = register(&Kernel{
	ID: "L", Name: "HACCmk", Domain: "n-body",
	Streams: 3, Loops: 1, Pattern: "1D",
	SVEVectorized: true,
	DefaultSize:   256,
	MaxSize:       6372,
	MinSize:       16,
	SizeStep:      4,
	Build:         buildHaccmk,
})

// refForces computes every particle's force from all n particles (the
// O(n²) reference the HACCmk variants are checked against).
func refForces(xs, ys, zs []float64, eps float64) (fx, fy, fz []float64) {
	n := len(xs)
	fx, fy, fz = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := xs[j] - xs[i]
			dy := ys[j] - ys[i]
			dz := zs[j] - zs[i]
			r2 := dx*dx + dy*dy + dz*dz + eps
			s := 1 / (r2 * math.Sqrt(r2))
			fx[i] += dx * s
			fy[i] += dy * s
			fz[i] += dz * s
		}
	}
	return fx, fy, fz
}

func buildHaccmk(h *mem.Hierarchy, v Variant, n int) *Instance {
	const eps = 0.01
	rng := newLCG(1414)
	xB, xs := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	yB, ys := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	zB, zs := allocF32(h, n, func(int) float64 { return rng.f32(1) })
	fxB, _ := allocF32(h, n, func(int) float64 { return 0 })
	fyB, _ := allocF32(h, n, func(int) float64 { return 0 })
	fzB, _ := allocF32(h, n, func(int) float64 { return 0 })

	const w = arch.W4
	b := program.NewBuilder("haccmk-" + v.String())
	// f1 = eps, f2 = 1.0 (for the reciprocal).
	b.I(isa.VDup(w, isa.V(16), isa.F(1)))
	b.I(isa.VDup(w, isa.V(17), isa.F(2)))

	// Vector body: given position chunks in px,py,pz and broadcast particle
	// coordinates in v10..v12, accumulate into v20..v22.
	body := func(px, py, pz isa.Reg, pred isa.Reg) {
		b.I(isa.VFSub(w, isa.V(4), px, isa.V(10), pred)) // dx
		b.I(isa.VFSub(w, isa.V(5), py, isa.V(11), pred))
		b.I(isa.VFSub(w, isa.V(6), pz, isa.V(12), pred))
		b.I(isa.VFMul(w, isa.V(7), isa.V(4), isa.V(4), pred))
		b.I(isa.VFMla(w, isa.V(7), isa.V(5), isa.V(5), pred))
		b.I(isa.VFMla(w, isa.V(7), isa.V(6), isa.V(6), pred))
		b.I(isa.VFAdd(w, isa.V(7), isa.V(7), isa.V(16), pred)) // +eps
		b.I(isa.VFSqrt(w, isa.V(8), isa.V(7)))
		b.I(isa.VFMul(w, isa.V(8), isa.V(8), isa.V(7), pred)) // r²·√r²
		b.I(isa.VFDiv(w, isa.V(8), isa.V(17), isa.V(8), pred))
		b.I(isa.VFMla(w, isa.V(20), isa.V(4), isa.V(8), pred))
		b.I(isa.VFMla(w, isa.V(21), isa.V(5), isa.V(8), pred))
		b.I(isa.VFMla(w, isa.V(22), isa.V(6), isa.V(8), pred))
	}
	// Scalar per-i prologue: broadcast (x[i],y[i],z[i]), zero accumulators.
	prologue := func() {
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(10), isa.X(14), 0))
		b.I(isa.VDup(w, isa.V(10), isa.F(10)))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(21)))
		b.I(isa.FLoad(w, isa.F(11), isa.X(14), 0))
		b.I(isa.VDup(w, isa.V(11), isa.F(11)))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(22)))
		b.I(isa.FLoad(w, isa.F(12), isa.X(14), 0))
		b.I(isa.VDup(w, isa.V(12), isa.F(12)))
		b.I(isa.VDupX(w, isa.V(20), isa.X(0)))
		b.I(isa.VDupX(w, isa.V(21), isa.X(0)))
		b.I(isa.VDupX(w, isa.V(22), isa.X(0)))
	}
	// Scalar per-i epilogue: reduce and store forces.
	epilogue := func() {
		b.I(isa.VFAddVF(w, isa.F(20), isa.V(20)))
		b.I(isa.VFAddVF(w, isa.F(21), isa.V(21)))
		b.I(isa.VFAddVF(w, isa.F(22), isa.V(22)))
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(23)))
		b.I(isa.FStore(w, isa.X(14), 0, isa.F(20)))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(24)))
		b.I(isa.FStore(w, isa.X(14), 0, isa.F(21)))
		b.I(isa.Add(isa.X(14), isa.X(13), isa.X(25)))
		b.I(isa.FStore(w, isa.X(14), 0, isa.F(22)))
	}

	if v == UVE {
		// Three coordinate streams, each replayed once per particle — the
		// paper's 3-stream configuration.
		b.ConfigStream(0, repRows(xB, w, n, n))
		b.ConfigStream(1, repRows(yB, w, n, n))
		b.ConfigStream(2, repRows(zB, w, n, n))
		b.I(isa.Li(isa.X(5), 0))
		b.Label("i")
		prologue()
		b.Label("j")
		body(isa.V(0), isa.V(1), isa.V(2), isa.None)
		b.I(isa.SBDimNotEnd(0, 0, "j"))
		epilogue()
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.SBNotEnd(0, "i"))
	} else {
		lanes := lanesFor(v, w)
		pred := isa.None
		if v == SVE {
			pred = isa.P(1)
		}
		b.I(isa.Li(isa.X(5), 0))
		b.Label("i")
		prologue()
		b.I(isa.Li(isa.X(9), 0))
		if v == SVE {
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		}
		b.Label("j")
		b.I(isa.VLoad(w, isa.V(1), isa.X(20), isa.X(9), 0, pred))
		b.I(isa.VLoad(w, isa.V(2), isa.X(21), isa.X(9), 0, pred))
		b.I(isa.VLoad(w, isa.V(3), isa.X(22), isa.X(9), 0, pred))
		body(isa.V(1), isa.V(2), isa.V(3), pred)
		if v == SVE {
			b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
			b.I(isa.BFirst(isa.P(1), "j"))
		} else {
			b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
			b.I(isa.Blt(isa.X(9), isa.X(1), "j"))
			// n is kept a multiple of the NEON width by the harness sizes.
		}
		epilogue()
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "i"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(24*n), func() error {
		wantFx, wantFy, wantFz := refForces(xs, ys, zs, eps)
		if err := checkF32(h, "fx", fxB, wantFx, 2e-3); err != nil {
			return err
		}
		if err := checkF32(h, "fy", fyB, wantFy, 2e-3); err != nil {
			return err
		}
		return checkF32(h, "fz", fzB, wantFz, 2e-3)
	})
	inst.IntArgs[1] = uint64(n)
	inst.IntArgs[20] = xB
	inst.IntArgs[21] = yB
	inst.IntArgs[22] = zB
	inst.IntArgs[23] = fxB
	inst.IntArgs[24] = fyB
	inst.IntArgs[25] = fzB
	inst.FPArgs[1] = FPArg{W: w, V: eps}
	inst.FPArgs[2] = FPArg{W: w, V: 1}
	return finalize(h, inst)
}

// --- M. KNN ---

// KKnn computes squared distances from a query point to N candidate points
// selected through an index list: dist[i] = Σ_d (P[idx[i]][d] − q[d])².
// The UVE gather uses an indirect modifier that retargets each row's offset
// from the index stream.
var KKnn = register(&Kernel{
	ID: "M", Name: "KNN", Domain: "data mining",
	Streams: 4, Loops: 1, Pattern: "2D+indirect-mod",
	SVEVectorized: true,
	DefaultSize:   512,
	MaxSize:       74_816,
	MinSize:       16,
	Build:         buildKnn,
})

func buildKnn(h *mem.Hierarchy, v Variant, n int) *Instance {
	const dims = 32 // point dimensionality
	rng := newLCG(1515)
	npoints := 2 * n
	pB, pv := allocMatF32(h, npoints, dims, func(i, j int) float64 { return rng.f32(1) })
	qB, qv := allocF32(h, dims, func(int) float64 { return rng.f32(1) })
	// Index values are stored pre-scaled to element offsets (idx·dims), the
	// natural encoding for an offset-retargeting indirection.
	idxB, idx := allocU64(h, n, func(int) uint64 { return (rng.next() % uint64(npoints)) * dims })
	distB := h.Mem.Alloc(4*n, arch.LineSize)

	want := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		row := int(idx[i])
		for d := 0; d < dims; d++ {
			diff := pv[row+d] - qv[d]
			s += diff * diff
		}
		want[i] = s
	}

	const w = arch.W4
	b := program.NewBuilder("knn-" + v.String())
	if v == UVE {
		// Index stream (engine-consumed) and the row gather it drives: the
		// indirect modifier retargets the row offset once per outer
		// iteration (paper §II-B3).
		b.ConfigStream(0, descriptor.New(idxB, arch.W8, descriptor.Load).
			Linear(int64(n), 1).MustBuild())
		b.ConfigStream(1, descriptor.New(pB, w, descriptor.Load).
			Dim(0, dims, 1).
			Dim(0, int64(n), 0).
			Indirect(descriptor.TargetOffset, descriptor.SetValue, 0).
			MustBuild())
		b.ConfigStream(2, repRows(qB, w, n, dims))
		b.ConfigStream(3, scalarRows(distB, w, n, 1, descriptor.Store))
		b.Label("row")
		b.I(isa.VDupX(w, isa.V(28), isa.X(0)))
		b.Label("ch")
		b.I(isa.VFSub(w, isa.V(27), isa.V(1), isa.V(2), isa.None))
		b.I(isa.VFMul(w, isa.V(26), isa.V(27), isa.V(27), isa.None))
		b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(26), isa.None))
		b.I(isa.SBDimNotEnd(1, 0, "ch"))
		b.I(isa.VFAddV(w, isa.V(3), isa.V(28)))
		b.I(isa.SBNotEnd(1, "row"))
	} else {
		lanes := lanesFor(v, w)
		pred := isa.None
		if v == SVE {
			pred = isa.P(1)
		}
		b.I(isa.Li(isa.X(2), dims))
		b.I(isa.Li(isa.X(5), 0)) // i
		b.Label("i")
		// base of the selected point: P + idx[i]·4 (pre-scaled by dims).
		b.I(isa.SllI(isa.X(13), isa.X(5), 3))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(21)))
		b.I(isa.Load(arch.W8, isa.X(14), isa.X(13), 0))
		b.I(isa.SllI(isa.X(14), isa.X(14), 2))
		b.I(isa.Add(isa.X(14), isa.X(14), isa.X(20)))
		b.I(isa.VDupX(w, isa.V(3), isa.X(0)))
		b.I(isa.Li(isa.X(9), 0)) // d
		if v == SVE {
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(2)))
		}
		b.Label("d")
		b.I(isa.VLoad(w, isa.V(1), isa.X(14), isa.X(9), 0, pred))
		b.I(isa.VLoad(w, isa.V(2), isa.X(22), isa.X(9), 0, pred))
		b.I(isa.VFSub(w, isa.V(4), isa.V(1), isa.V(2), pred))
		b.I(isa.VFMla(w, isa.V(3), isa.V(4), isa.V(4), pred))
		if v == SVE {
			b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(2)))
			b.I(isa.BFirst(isa.P(1), "d"))
		} else {
			b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
			b.I(isa.Blt(isa.X(9), isa.X(2), "d"))
		}
		b.I(isa.VFAddVF(w, isa.F(20), isa.V(3)))
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(23)))
		b.I(isa.FStore(w, isa.X(13), 0, isa.F(20)))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "i"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*npoints*dims+8*n), func() error {
		return checkF32(h, "dist", distB, want, 1e-3)
	})
	inst.IntArgs[1] = uint64(n)
	inst.IntArgs[20] = pB
	inst.IntArgs[21] = idxB
	inst.IntArgs[22] = qB
	inst.IntArgs[23] = distB
	return finalize(h, inst)
}
