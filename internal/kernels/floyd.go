package kernels

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- S. Floyd-Warshall ---

// KFloyd computes all-pairs shortest paths: for each k,
// D[i][j] = min(D[i][j], D[i][k] + D[k][j]). The ARM compiler did not
// vectorize it (scalar baselines); the UVE version reconfigures four
// streams per k iteration — the paper's mechanism for high-dimensional
// patterns ("forcing the outer loop(s) to reconfigure the access pattern at
// each new iteration", §III-A2). Row k is rewritten with identical values
// (D[k][k]=0), so the in-place streaming stays hazard-free.
var KFloyd = register(&Kernel{
	ID: "S", Name: "Floyd-Warshall", Domain: "dynamic programming",
	Streams: 4, Loops: 1, Pattern: "2D",
	SVEVectorized: false,
	DefaultSize:   64,
	MaxSize:       83,
	MinSize:       16,
	Build:         buildFloyd,
})

func buildFloyd(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(1313)
	dB, dv := allocMatF32(h, n, n, func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 1 + float64(rng.next()%1000)/10
	})

	want := append([]float64(nil), dv...)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				alt := float32(want[i*n+k]) + float32(want[k*n+j])
				if alt < float32(want[i*n+j]) {
					want[i*n+j] = float64(alt)
				}
			}
		}
	}

	const w = arch.W4
	b := program.NewBuilder("floyd-" + v.String())
	if v == UVE {
		// The k loop is expanded by the builder: each iteration's stream
		// bases depend on k, and configuration instructions carry them as
		// immediates (hardware would read them from scalar registers).
		for k := 0; k < n; k++ {
			tag := fmt.Sprintf("k%d", k)
			b.ConfigStream(0, rows2D(dB, w, n, n, n))                               // D in
			b.ConfigStream(1, repRows(dB+uint64(4*k*n), w, n, n))                   // row k, repeated
			b.ConfigStream(2, scalarRows(dB+uint64(4*k), w, n, n, descriptor.Load)) // column k
			b.ConfigStream(3, descriptor.New(dB, w, descriptor.Store).
				Dim(0, int64(n), 1).Dim(0, int64(n), int64(n)).MustBuild()) // D out
			b.Label(tag + "_row")
			b.I(isa.VBcast(w, isa.V(20), isa.V(2)))
			b.Label(tag + "_ch")
			b.I(isa.VFAdd(w, isa.V(21), isa.V(20), isa.V(1), isa.None))
			b.I(isa.VFMin(w, isa.V(3), isa.V(0), isa.V(21), isa.None))
			b.I(isa.SBDimNotEnd(0, 0, tag+"_ch"))
			b.I(isa.SBNotEnd(0, tag+"_row"))
		}
	} else {
		// Scalar baseline.
		b.I(isa.Li(isa.X(4), 0)) // k
		b.Label("k")
		b.I(isa.Mul(isa.X(6), isa.X(4), isa.X(1))) // k*n
		b.I(isa.Li(isa.X(5), 0))                   // i
		b.Label("i")
		b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1))) // i*n
		// f10 = D[i][k]
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(4)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(10), isa.X(12), 0))
		b.I(isa.Li(isa.X(9), 0)) // j
		b.Label("j")
		b.I(isa.Add(isa.X(12), isa.X(6), isa.X(9)))
		b.I(isa.SllI(isa.X(12), isa.X(12), 2))
		b.I(isa.Add(isa.X(12), isa.X(12), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(11), isa.X(12), 0)) // D[k][j]
		b.I(isa.Add(isa.X(13), isa.X(8), isa.X(9)))
		b.I(isa.SllI(isa.X(13), isa.X(13), 2))
		b.I(isa.Add(isa.X(13), isa.X(13), isa.X(20)))
		b.I(isa.FLoad(w, isa.F(12), isa.X(13), 0)) // D[i][j]
		b.I(isa.FAdd(w, isa.F(13), isa.F(10), isa.F(11)))
		b.I(isa.FMin(w, isa.F(14), isa.F(12), isa.F(13)))
		b.I(isa.FStore(w, isa.X(13), 0, isa.F(14)))
		b.I(isa.AddI(isa.X(9), isa.X(9), 1))
		b.I(isa.Blt(isa.X(9), isa.X(1), "j"))
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(1), "i"))
		b.I(isa.AddI(isa.X(4), isa.X(4), 1))
		b.I(isa.Blt(isa.X(4), isa.X(1), "k"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*n*n), func() error {
		return checkF32(h, "D", dB, want, 1e-4)
	})
	inst.IntArgs[1] = uint64(n)
	inst.IntArgs[20] = dB
	return finalize(h, inst)
}
