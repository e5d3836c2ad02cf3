package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- N. Covariance ---

// KCovariance is the PolyBench covariance kernel: column means, mean
// subtraction, then the upper-triangular covariance matrix
// cov[i][j] = Σ_k d[k][i]·d[k][j] / (N−1). The paper's ARM compiler did not
// vectorize it (scalar baselines). The UVE version's third kernel pairs
// column streams whose offset and size are rewritten by static modifiers on
// every outer iteration — the triangular pattern family of Fig 3.B4.
var KCovariance = register(&Kernel{
	ID: "N", Name: "Covariance", Domain: "data mining",
	Streams: 8, Loops: 3, Pattern: "3D+static-mod",
	SVEVectorized: false,
	DefaultSize:   48,
	MaxSize:       640,
	MinSize:       32,
	SizeStep:      16,
	Build:         buildCovariance,
})

// refCovariance computes the column means and the upper triangle of the
// covariance matrix of the n×n data dv, with the operation structure the
// kernels use (dot products are compared with a tolerance because chunked
// accumulation reorders the sums).
func refCovariance(dv []float64, n int) (mean, cov []float64) {
	mean = make([]float64, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += dv[i*n+j]
		}
		mean[j] = s / float64(n)
	}
	cent := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cent[i*n+j] = dv[i*n+j] - mean[j]
		}
	}
	cov = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += cent[k*n+i] * cent[k*n+j]
			}
			cov[i*n+j] = s / float64(n-1)
		}
	}
	return mean, cov
}

func buildCovariance(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(1717)
	dB, dv := allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(1) })
	meanB := h.Mem.Alloc(4*n, arch.LineSize)
	covB := h.Mem.Alloc(4*n*n, arch.LineSize)

	const w = arch.W4
	lanes := arch.LanesFor(arch.MaxVecBytes, w)
	b := program.NewBuilder("covariance-" + v.String())
	if v == UVE {
		if n%lanes != 0 {
			b.Errorf("covariance: N=%d must be a multiple of the UVE lane count %d", n, lanes)
		}
		nb := n / lanes
		// Kernel 1: column means, accumulated block-wise over rows.
		b.ConfigStream(0, descriptor.New(dB, w, descriptor.Load).
			Dim(0, int64(lanes), 1).
			Dim(0, int64(n), int64(n)).
			Dim(0, int64(nb), int64(lanes)).
			MustBuild())
		b.ConfigStream(1, descriptor.New(meanB, w, descriptor.Store).
			Dim(0, int64(lanes), 1).
			Dim(0, int64(nb), int64(lanes)).
			MustBuild())
		b.I(isa.VDup(w, isa.V(17), isa.F(1))) // 1/N
		b.I(isa.VDup(w, isa.V(18), isa.F(2))) // 1/(N−1)
		b.Label("k1_jb")
		b.I(isa.VDupX(w, isa.V(28), isa.X(0)))
		b.Label("k1_i")
		b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(0), isa.None))
		b.I(isa.SBDimNotEnd(0, 1, "k1_i"))
		b.I(isa.VFMul(w, isa.V(1), isa.V(28), isa.V(17), isa.None))
		b.I(isa.SBNotEnd(0, "k1_jb"))
		// Kernel 2: subtract the means.
		b.ConfigStream(2, rows2D(dB, w, n, n, n))
		b.ConfigStream(3, repRows(meanB, w, n, n))
		b.ConfigStream(4, descriptor.New(dB, w, descriptor.Store).
			Dim(0, int64(n), 1).Dim(0, int64(n), int64(n)).MustBuild())
		b.Label("k2")
		b.I(isa.VFSub(w, isa.V(4), isa.V(2), isa.V(3), isa.None))
		b.I(isa.SBNotEnd(2, "k2"))
		// Kernel 3: triangular column-pair dots. Column i repeats a
		// shrinking number of times (size modifier); column j slides right
		// (offset + size modifiers); the output walks the upper triangle.
		// Column i: the k-scan repeats once per j; the repeat count shrinks
		// by one on every i iteration (modifier bound to the outer dim).
		b.ConfigStream(5, descriptor.New(dB, w, descriptor.Load).
			Dim(0, int64(n), int64(n)). // k scan down column i
			Dim(0, int64(n+1), 0).      // repeated per j
			Dim(0, int64(n), 1).        // i selects the column
			Mod(descriptor.TargetSize, descriptor.Sub, 1, int64(n)).
			MustBuild())
		// Column j: starts at i and slides right; offset grows and size
		// shrinks per i iteration. The modifiers fire before the first
		// iteration too, hence the -1/n+1 initial values.
		b.ConfigStream(6, descriptor.New(dB, w, descriptor.Load).
			Dim(0, int64(n), int64(n)). // k scan down column j
			Dim(-1, int64(n+1), 1).     // j from i to N−1
			Dim(0, int64(n), 0).        // per i
			Mod(descriptor.TargetOffset, descriptor.Add, 1, int64(n)).
			Mod(descriptor.TargetSize, descriptor.Sub, 1, int64(n)).
			MustBuild())
		// Output: one element per (i,j) pair along the upper triangle.
		b.ConfigStream(7, descriptor.New(covB, w, descriptor.Store).
			Dim(0, 1, 1).
			Dim(-1, int64(n+1), 1).
			Dim(0, int64(n), int64(n)).
			Mod(descriptor.TargetOffset, descriptor.Add, 1, int64(n)).
			Mod(descriptor.TargetSize, descriptor.Sub, 1, int64(n)).
			MustBuild())
		b.Label("k3_pair")
		b.I(isa.VDupX(w, isa.V(28), isa.X(0)))
		b.Label("k3_k")
		b.I(isa.VFMul(w, isa.V(26), isa.V(5), isa.V(6), isa.None))
		b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(26), isa.None))
		b.I(isa.SBDimNotEnd(5, 0, "k3_k"))
		b.I(isa.VFAddV(w, isa.V(27), isa.V(28)))
		b.I(isa.VFMul(w, isa.V(7), isa.V(27), isa.V(18), isa.None))
		b.I(isa.SBNotEnd(5, "k3_pair"))
	} else {
		// Scalar baseline, three loop nests.
		// Kernel 1: means.
		b.I(isa.Li(isa.X(5), 0)) // j
		b.Label("m_j")
		b.I(isa.FLi(w, isa.F(10), 0))
		b.I(isa.Li(isa.X(6), 0)) // i
		b.Label("m_i")
		b.I(isa.Mul(isa.X(12), isa.X(6), isa.X(1)))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(5)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(11), isa.X(12), 0))
		b.I(isa.FAdd(w, isa.F(10), isa.F(10), isa.F(11)))
		b.I(isa.AddI(isa.X(6), isa.X(6), 1))
		b.I(isa.Blt(isa.X(6), isa.X(1), "m_i"))
		b.I(isa.FMul(w, isa.F(10), isa.F(10), isa.F(1)))
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(21)))
		b.I(isa.FStore(w, isa.X(13), 0, isa.F(10)))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "m_j"))
		// Kernel 2: subtract.
		b.I(isa.Li(isa.X(6), 0))
		b.Label("s_i")
		b.I(isa.Li(isa.X(5), 0))
		b.Label("s_j")
		b.I(isa.Mul(isa.X(12), isa.X(6), isa.X(1)))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(5)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(11), isa.X(12), 0))
		b.I(isa.SllI(isa.X(13), isa.X(5), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(21)))
		b.I(isa.FLoad(w, isa.F(12), isa.X(13), 0))
		b.I(isa.FSub(w, isa.F(11), isa.F(11), isa.F(12)))
		b.I(isa.FStore(w, isa.X(12), 0, isa.F(11)))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "s_j"))
		b.I(isa.AddI(isa.X(6), isa.X(6), 1))
		b.I(isa.Blt(isa.X(6), isa.X(1), "s_i"))
		// Kernel 3: upper-triangular covariance.
		b.I(isa.Li(isa.X(5), 0)) // i
		b.Label("c_i")
		b.I(isa.Mv(isa.X(6), isa.X(5))) // j
		b.Label("c_j")
		b.I(isa.FLi(w, isa.F(10), 0))
		b.I(isa.Li(isa.X(7), 0)) // k
		b.Label("c_k")
		b.I(isa.Mul(isa.X(12), isa.X(7), isa.X(1)))
		b.I(isa.Add(isa.X(13), isa.X(12), isa.X(5)))
		b.I(isa.SllI(isa.X(13), isa.X(13), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(11), isa.X(13), 0))
		b.I(isa.Add(isa.X(14), isa.X(12), isa.X(6)))
		b.I(isa.SllI(isa.X(14), isa.X(14), 2))
		b.I(isa.Add(isa.X(14), isa.X(14), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(12), isa.X(14), 0))
		b.I(isa.FMadd(w, isa.F(10), isa.F(11), isa.F(12), isa.F(10)))
		b.I(isa.AddI(isa.X(7), isa.X(7), 1))
		b.I(isa.Blt(isa.X(7), isa.X(1), "c_k"))
		b.I(isa.FMul(w, isa.F(10), isa.F(10), isa.F(2)))
		b.I(isa.Mul(isa.X(12), isa.X(5), isa.X(1)))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(6)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(22)))
		b.I(isa.FStore(w, isa.X(12), 0, isa.F(10)))
		b.I(isa.AddI(isa.X(6), isa.X(6), 1))
		b.I(isa.Blt(isa.X(6), isa.X(1), "c_j"))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "c_i"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*(2*n*n+n)), func() error {
		mean, wantCov := refCovariance(dv, n)
		if err := checkF32(h, "mean", meanB, mean, 1e-3); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			row := i*n + i
			if err := checkF32(h, "cov", covB+uint64(4*row), wantCov[row:i*n+n], 2e-3); err != nil {
				return err
			}
		}
		return nil
	})
	inst.IntArgs[1] = uint64(n)
	inst.IntArgs[20] = dB
	inst.IntArgs[21] = meanB
	inst.IntArgs[22] = covB
	inst.FPArgs[1] = FPArg{W: w, V: 1.0 / float64(n)}
	inst.FPArgs[2] = FPArg{W: w, V: 1.0 / float64(n-1)}
	return finalize(h, inst)
}
