package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// The three MAMR variants compute the maximum across the rows of a matrix
// (paper Fig 2): (O) a full matrix, (P) a lower-triangular matrix, and (Q)
// a full matrix of pointers into an array. The UVE loop code is *identical*
// for all three — only the stream descriptors differ — which is the paper's
// simplified-vectorization claim (F3). The ARM compiler vectorized none of
// them, so both baselines run scalar code.

// emitMamrUVE is the shared Fig 2.D loop: u0 is the input stream (whatever
// its pattern), u1 the per-row output stream.
func emitMamrUVE(b *program.Builder) {
	const w = arch.W4
	b.Label("next")
	b.I(isa.VMove(w, isa.V(5), isa.V(0)))
	b.I(isa.SBDimEnd(0, 0, "hmax"))
	b.Label("loop")
	b.I(isa.VFMax(w, isa.V(5), isa.V(5), isa.V(0), isa.None))
	b.I(isa.SBDimNotEnd(0, 0, "loop"))
	b.Label("hmax")
	b.I(isa.VFMaxV(w, isa.V(1), isa.V(5)))
	b.I(isa.SBNotEnd(0, "next"))
}

type mamrShape int

const (
	mamrFull mamrShape = iota
	mamrDiag
	mamrInd
)

func buildMamr(shape mamrShape) func(h *mem.Hierarchy, v Variant, n int) *Instance {
	return func(h *mem.Hierarchy, v Variant, n int) *Instance {
		const w = arch.W4
		rng := newLCG(1200 + uint64(shape))
		cB := h.Mem.Alloc(4*n, arch.LineSize)

		var aB uint64
		var av []float64
		var idxB uint64
		var idx []uint64
		rowLen := func(i int) int { return n }
		elemAt := func(i, j int) float64 { return av[i*n+j] }
		switch shape {
		case mamrFull:
			aB, av = allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(100) })
		case mamrDiag:
			aB, av = allocMatF32(h, n, n, func(i, j int) float64 { return rng.f32(100) })
			rowLen = func(i int) int { return i + 1 }
		case mamrInd:
			// A is a vector; B holds per-element indices into it (Fig 2.C).
			aB, av = allocF32(h, n, func(int) float64 { return rng.f32(100) })
			idxB, idx = allocU64(h, n*n, func(int) uint64 { return rng.next() % uint64(n) })
			elemAt = func(i, j int) float64 { return av[idx[i*n+j]] }
		}

		want := make([]float64, n)
		for i := 0; i < n; i++ {
			best := elemAt(i, 0)
			for j := 1; j < rowLen(i); j++ {
				if v := elemAt(i, j); v > best {
					best = v
				}
			}
			want[i] = best
		}

		b := program.NewBuilder("mamr-" + v.String())
		if v == UVE {
			switch shape {
			case mamrFull:
				b.ConfigStream(0, rows2D(aB, w, n, n, n))
			case mamrDiag:
				// Fig 3.B4: triangular rows via a static size modifier.
				b.ConfigStream(0, descriptor.New(aB, w, descriptor.Load).
					Dim(0, 0, 1).
					Dim(0, int64(n), int64(n)).
					Mod(descriptor.TargetSize, descriptor.Add, 1, int64(n)).
					MustBuild())
			case mamrInd:
				// Index stream feeds a per-element gather (Fig 3.B5 shape).
				b.ConfigStream(2, descriptor.New(idxB, arch.W8, descriptor.Load).
					Linear(int64(n*n), 1).MustBuild())
				b.ConfigStream(0, descriptor.New(aB, w, descriptor.Load).
					Dim(0, int64(n), 0).
					Indirect(descriptor.TargetOffset, descriptor.SetValue, 2).
					Dim(0, int64(n), 0).
					MustBuild())
			}
			b.ConfigStream(1, scalarRows(cB, w, n, 1, descriptor.Store))
			emitMamrUVE(b)
		} else {
			// Scalar baseline.
			b.I(isa.Li(isa.X(5), 0)) // i
			b.Label("i")
			b.I(isa.Mul(isa.X(8), isa.X(5), isa.X(1))) // i*n
			// row bound: full/ind → n; diag → i+1 (in x7).
			if shape == mamrDiag {
				b.I(isa.AddI(isa.X(7), isa.X(5), 1))
			} else {
				b.I(isa.Mv(isa.X(7), isa.X(1)))
			}
			loadElem := func(dst isa.Reg) {
				// element address for A[i][j] / A[idx[i*n+j]]
				b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
				if shape == mamrInd {
					b.I(isa.SllI(isa.X(13), isa.X(12), 3))
					b.I(isa.Add(isa.X(13), isa.X(13), isa.X(21)))
					b.I(isa.Load(arch.W8, isa.X(14), isa.X(13), 0))
					b.I(isa.SllI(isa.X(14), isa.X(14), 2))
					b.I(isa.Add(isa.X(14), isa.X(14), isa.X(20)))
					b.I(isa.FLoad(w, dst, isa.X(14), 0))
				} else {
					b.I(isa.SllI(isa.X(13), isa.X(12), 2))
					b.I(isa.Add(isa.X(13), isa.X(13), isa.X(20)))
					b.I(isa.FLoad(w, dst, isa.X(13), 0))
				}
			}
			b.I(isa.Li(isa.X(9), 0))
			loadElem(isa.F(10))
			b.I(isa.Li(isa.X(9), 1))
			b.I(isa.Bge(isa.X(9), isa.X(7), "rowdone"))
			b.Label("j")
			loadElem(isa.F(11))
			b.I(isa.FMax(w, isa.F(10), isa.F(10), isa.F(11)))
			b.I(isa.AddI(isa.X(9), isa.X(9), 1))
			b.I(isa.Blt(isa.X(9), isa.X(7), "j"))
			b.Label("rowdone")
			b.I(isa.SllI(isa.X(13), isa.X(5), 2))
			b.I(isa.Add(isa.X(13), isa.X(13), isa.X(22)))
			b.I(isa.FStore(w, isa.X(13), 0, isa.F(10)))
			b.I(isa.AddI(isa.X(5), isa.X(5), 1))
			b.I(isa.Blt(isa.X(5), isa.X(1), "i"))
		}
		b.I(isa.Halt())

		inst := instance(b, int64(4*n*n), func() error {
			return checkF32(h, "C", cB, want, 0)
		})
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[20] = aB
		inst.IntArgs[21] = idxB
		inst.IntArgs[22] = cB
		return finalize(h, inst)
	}
}

// KMamr, KMamrDiag and KMamrInd are the Fig 8 rows O, P, Q.
var KMamr = register(&Kernel{
	ID: "O", Name: "MAMR", Domain: "data mining",
	Streams: 2, Loops: 1, Pattern: "2D",
	SVEVectorized: false,
	DefaultSize:   192,
	MaxSize:       2208,
	MinSize:       16,
	Build:         buildMamr(mamrFull),
})

var KMamrDiag = register(&Kernel{
	ID: "P", Name: "MAMR-Diag", Domain: "data mining",
	Streams: 2, Loops: 1, Pattern: "2D+static-mod",
	SVEVectorized: false,
	DefaultSize:   192,
	MaxSize:       2206,
	MinSize:       16,
	Build:         buildMamr(mamrDiag),
})

var KMamrInd = register(&Kernel{
	ID: "Q", Name: "MAMR-Ind", Domain: "data mining",
	Streams: 3, Loops: 1, Pattern: "2D+indirect-mod",
	SVEVectorized: false,
	DefaultSize:   128,
	MaxSize:       1875,
	MinSize:       16,
	Build:         buildMamr(mamrInd),
})
