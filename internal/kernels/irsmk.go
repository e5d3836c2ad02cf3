package kernels

import (
	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// --- K. IRSmk ---

// KIrsmk is the ASC Sequoia implicit-radiation-solver kernel: a 27-point
// 3-D stencil with per-point coefficient arrays,
// b[i] = Σ_k a_k[i] · x[i + off_k]. The paper counts 57 streams across the
// kernel; with 32 architectural stream registers the UVE version runs three
// passes of nine terms each (9 coefficient + 9 shifted-x + carry in/out =
// 20 concurrent streams per pass).
var KIrsmk = register(&Kernel{
	ID: "K", Name: "IRSmk", Domain: "stencil",
	Streams: 20, Loops: 1, Pattern: "3D",
	SVEVectorized: true,
	DefaultSize:   24,
	MaxSize:       40,
	MinSize:       8,
	Build:         buildIrsmk,
})

// interior3D walks the interior of an m³ grid shifted by (dx,dy,dz).
func interior3D(base uint64, m, dx, dy, dz int, kind descriptor.Kind) *descriptor.Descriptor {
	origin := base + uint64(4*((1+dz)*m*m+(1+dy)*m+1+dx))
	mi := int64(m - 2)
	return descriptor.New(origin, arch.W4, kind).
		Dim(0, mi, 1).
		Dim(0, mi, int64(m)).
		Dim(0, mi, int64(m*m)).
		MustBuild()
}

func buildIrsmk(h *mem.Hierarchy, v Variant, m int) *Instance {
	rng := newLCG(1616)
	const terms = 27
	grid := m * m * m
	xB, xv := allocF32(h, grid, func(int) float64 { return rng.f32(1) })
	aB := make([]uint64, terms)
	av := make([][]float64, terms)
	for t := 0; t < terms; t++ {
		aB[t], av[t] = allocF32(h, grid, func(int) float64 { return rng.f32(0.2) })
	}
	bB, _ := allocF32(h, grid, func(int) float64 { return 0 })

	offs := make([][3]int, 0, terms)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				offs = append(offs, [3]int{dx, dy, dz})
			}
		}
	}
	// Reference, accumulated in the same pass structure (9+9+9) the UVE
	// version uses; the baselines compute all 27 terms in one loop with the
	// same left-to-right order, which matches in float32 because each pass
	// sums into the carry sequentially.
	want := make([]float64, grid)
	for z := 1; z < m-1; z++ {
		for y := 1; y < m-1; y++ {
			for x := 1; x < m-1; x++ {
				i := z*m*m + y*m + x
				var acc float32
				for t := 0; t < terms; t++ {
					o := offs[t]
					j := (z+o[2])*m*m + (y+o[1])*m + (x + o[0])
					acc += float32(av[t][i]) * float32(xv[j])
				}
				want[i] = float64(acc)
			}
		}
	}

	const w = arch.W4
	b := program.NewBuilder("irsmk-" + v.String())
	if v == UVE {
		for pass := 0; pass < 3; pass++ {
			tag := []string{"pa", "pb", "pc"}[pass]
			for t := 0; t < 9; t++ {
				term := pass*9 + t
				o := offs[term]
				b.ConfigStream(t, interior3D(aB[term], m, 0, 0, 0, descriptor.Load))
				b.ConfigStream(9+t, interior3D(xB, m, o[0], o[1], o[2], descriptor.Load))
			}
			b.ConfigStream(18, interior3D(bB, m, 0, 0, 0, descriptor.Load))
			b.ConfigStream(19, interior3D(bB, m, 0, 0, 0, descriptor.Store))
			b.Label(tag)
			b.I(isa.VFMul(w, isa.V(28), isa.V(0), isa.V(9), isa.None))
			for t := 1; t < 9; t++ {
				b.I(isa.VFMul(w, isa.V(27), isa.V(t), isa.V(9+t), isa.None))
				b.I(isa.VFAdd(w, isa.V(28), isa.V(28), isa.V(27), isa.None))
			}
			b.I(isa.VFAdd(w, isa.V(19), isa.V(28), isa.V(18), isa.None))
			b.I(isa.SBNotEnd(0, tag))
		}
	} else {
		// Baselines: one loop over interior rows, vectorized along x, all
		// 27 terms inline.
		lanes := lanesFor(v, w)
		pred := isa.None
		if v == SVE {
			pred = isa.P(1)
		}
		// x1 = m-2 (inner length); x2 = m; x3 = m-1.
		b.I(isa.Li(isa.X(4), 1)) // z
		b.Label("z")
		b.I(isa.Li(isa.X(5), 1)) // y
		b.Label("y")
		// row base index = z·m² + y·m + 1
		b.I(isa.Mul(isa.X(8), isa.X(4), isa.X(2)))
		b.I(isa.Add(isa.X(8), isa.X(8), isa.X(5)))
		b.I(isa.Mul(isa.X(8), isa.X(8), isa.X(2)))
		b.I(isa.AddI(isa.X(8), isa.X(8), 1))
		b.I(isa.Li(isa.X(9), 0)) // x
		if v == SVE {
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		} else {
			b.I(isa.Li(isa.X(15), int64(lanes)))
			b.I(isa.Div(isa.X(10), isa.X(1), isa.X(15)))
			b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
		}
		// Term t's coefficients start aB[t]-aB[0] bytes past x20: each array
		// is a line-aligned allocation, so they are contiguous only when a
		// grid fills whole lines.
		aOff := func(t int) int64 { return int64(aB[t] - aB[0]) }
		b.Label("x")
		b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
		b.I(isa.VDupX(w, isa.V(3), isa.X(0)))
		for t := 0; t < terms; t++ {
			o := offs[t]
			shift := int64(o[2]*m*m + o[1]*m + o[0])
			b.I(isa.VLoad(w, isa.V(1), isa.X(20), isa.X(12), aOff(t)/4, pred))
			b.I(isa.VLoad(w, isa.V(2), isa.X(21), isa.X(12), shift, pred))
			b.I(isa.VFMla(w, isa.V(3), isa.V(1), isa.V(2), pred))
		}
		b.I(isa.VStore(w, isa.X(22), isa.X(12), 0, isa.V(3), pred))
		if v == SVE {
			b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
			b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
			b.I(isa.BFirst(isa.P(1), "x"))
		} else {
			b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
			b.I(isa.Blt(isa.X(9), isa.X(10), "x"))
			// Scalar tail for the row remainder.
			b.I(isa.Bge(isa.X(9), isa.X(1), "xd"))
			b.Label("xt")
			b.I(isa.Add(isa.X(12), isa.X(8), isa.X(9)))
			b.I(isa.SllI(isa.X(13), isa.X(12), 2))
			b.I(isa.FLi(w, isa.F(10), 0))
			for t := 0; t < terms; t++ {
				o := offs[t]
				shift := int64(o[2]*m*m + o[1]*m + o[0])
				b.I(isa.Add(isa.X(14), isa.X(13), isa.X(20)))
				b.I(isa.FLoad(w, isa.F(11), isa.X(14), aOff(t)))
				b.I(isa.Add(isa.X(14), isa.X(13), isa.X(21)))
				b.I(isa.FLoad(w, isa.F(12), isa.X(14), shift*4))
				b.I(isa.FMadd(w, isa.F(10), isa.F(11), isa.F(12), isa.F(10)))
			}
			b.I(isa.Add(isa.X(14), isa.X(13), isa.X(22)))
			b.I(isa.FStore(w, isa.X(14), 0, isa.F(10)))
			b.I(isa.AddI(isa.X(9), isa.X(9), 1))
			b.I(isa.Blt(isa.X(9), isa.X(1), "xt"))
			b.Label("xd")
		}
		b.I(isa.AddI(isa.X(5), isa.X(5), 1))
		b.I(isa.Blt(isa.X(5), isa.X(3), "y"))
		b.I(isa.AddI(isa.X(4), isa.X(4), 1))
		b.I(isa.Blt(isa.X(4), isa.X(3), "z"))
	}
	b.I(isa.Halt())

	inst := instance(b, int64(4*grid*(terms+2)), func() error {
		// Validate the interior only; the halo stays zero.
		for z := 1; z < m-1; z++ {
			for y := 1; y < m-1; y++ {
				row := z*m*m + y*m + 1
				if err := checkF32(h, "b", bB+uint64(4*row), want[row:row+m-2], 1e-3); err != nil {
					return err
				}
			}
		}
		return nil
	})
	inst.IntArgs[1] = uint64(m - 2)
	inst.IntArgs[2] = uint64(m)
	inst.IntArgs[3] = uint64(m - 1)
	inst.IntArgs[20] = aB[0] // the coefficient arrays' common base
	inst.IntArgs[21] = xB
	inst.IntArgs[22] = bB
	return finalize(h, inst)
}
