package kernels

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// ld and st are shorthand 1-D stream descriptor builders.
func ld1(base uint64, w arch.ElemWidth, n int) *descriptor.Descriptor {
	return descriptor.New(base, w, descriptor.Load).Linear(int64(n), 1).MustBuild()
}

func st1(base uint64, w arch.ElemWidth, n int) *descriptor.Descriptor {
	return descriptor.New(base, w, descriptor.Store).Linear(int64(n), 1).MustBuild()
}

// --- A. Memcpy ---

// KMemcpy is y[i] = x[i] over double-words.
var KMemcpy = register(&Kernel{
	ID: "A", Name: "Memcpy", Domain: "memory",
	Streams: 2, Loops: 1, Pattern: "1D",
	SVEVectorized: true,
	DefaultSize:   1 << 16,
	MaxSize:       2_105_545,
	MinSize:       16,
	Build:         buildMemcpy,
})

func buildMemcpy(h *mem.Hierarchy, v Variant, n int) *Instance {
	rng := newLCG(101)
	xb := h.Mem.Alloc(8*n, arch.LineSize)
	yb := h.Mem.Alloc(8*n, arch.LineSize)
	for i := 0; i < n; i++ {
		h.Mem.Write(xb+uint64(8*i), arch.W8, rng.next())
	}
	spec := &map1DSpec{
		name: "memcpy", w: arch.W8, ins: []uint64{xb}, out: yb, n: n,
		emit: func(b *program.Builder, w arch.ElemWidth, pred isa.Reg, in []isa.Reg, out isa.Reg) {
			b.I(isa.VMove(w, out, in[0]))
		},
		emitScalar: func(b *program.Builder, w arch.ElemWidth, in []isa.Reg, out isa.Reg) {
			b.I(isa.FMv(w, out, in[0]))
		},
	}
	check := func() error {
		for i := 0; i < n; i++ {
			want := h.Mem.Read(xb+uint64(8*i), arch.W8)
			if got := h.Mem.Read(yb+uint64(8*i), arch.W8); got != want {
				return fmt.Errorf("y[%d] = %#x, want %#x", i, got, want)
			}
		}
		return nil
	}
	return instanceMap1D(h, v, spec, int64(16*n), check)
}

// --- C. SAXPY (paper Figs 1 and 4) ---

// KSaxpy is y[i] = a·x[i] + y[i].
var KSaxpy = register(&Kernel{
	ID: "C", Name: "SAXPY", Domain: "BLAS",
	Streams: 3, Loops: 1, Pattern: "1D",
	SVEVectorized: true,
	DefaultSize:   1 << 15,
	MaxSize:       1_630_208,
	MinSize:       16,
	Build:         buildSaxpy,
})

func buildSaxpy(h *mem.Hierarchy, v Variant, n int) *Instance {
	const a = 2.5
	rng := newLCG(303)
	xb, xs := allocF32(h, n, func(int) float64 { return rng.f32(10) })
	yb, ys := allocF32(h, n, func(int) float64 { return rng.f32(10) })
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = float64(float32(a)*float32(xs[i]) + float32(ys[i]))
	}

	w := arch.W4
	var bld *program.Builder
	if v == UVE {
		// Fig 4: three streams, a broadcast, and mul+add per chunk (the FMA
		// cannot be used because a stream register cannot be read and
		// written by the same instruction).
		b := program.NewBuilder("saxpy-UVE")
		b.ConfigStream(0, ld1(xb, w, n))
		b.ConfigStream(1, ld1(yb, w, n))
		b.ConfigStream(2, st1(yb, w, n))
		b.I(isa.VDup(w, isa.V(3), isa.F(1)))
		b.Label("loop")
		b.I(isa.VFMul(w, isa.V(4), isa.V(3), isa.V(0), isa.None))
		b.I(isa.VFAdd(w, isa.V(2), isa.V(4), isa.V(1), isa.None))
		b.I(isa.SBNotEnd(0, "loop"))
		b.I(isa.Halt())
		bld = b
	} else {
		spec := &map1DSpec{
			name: "saxpy", w: w, ins: []uint64{xb, yb}, out: yb, n: n,
			setup: func(b *program.Builder, w arch.ElemWidth) {
				b.I(isa.VDup(w, isa.V(9), isa.F(1)))
			},
			emit: func(b *program.Builder, w arch.ElemWidth, pred isa.Reg, in []isa.Reg, out isa.Reg) {
				b.I(isa.VMove(w, out, in[1]))
				b.I(isa.VFMla(w, out, isa.V(9), in[0], pred))
			},
			emitScalar: func(b *program.Builder, w arch.ElemWidth, in []isa.Reg, out isa.Reg) {
				b.I(isa.FMadd(w, out, isa.F(1), in[0], in[1]))
			},
		}
		bld = buildMap1D(v, spec)
	}
	inst := instance(bld, int64(12*n), func() error { return checkF32(h, "y", yb, want, 1e-5) })
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[2] = xb
		inst.IntArgs[3] = yb
		inst.IntArgs[4] = yb
	}
	inst.FPArgs[1] = FPArg{W: w, V: a}
	return finalize(h, inst)
}

// --- B. STREAM (Scale, Add, Triad — McCalpin) ---

// KStream runs the three non-copy STREAM sub-kernels back to back:
// b = s·c; c = a + b; a = b + s·c.
var KStream = register(&Kernel{
	ID: "B", Name: "STREAM", Domain: "memory",
	Streams: 3, Loops: 3, Pattern: "1D",
	SVEVectorized: true,
	DefaultSize:   1 << 15,
	MaxSize:       814_080,
	MinSize:       16,
	Build:         buildStream,
})

func buildStream(h *mem.Hierarchy, v Variant, n int) *Instance {
	const s = 3.0
	rng := newLCG(202)
	ab, av := allocF32(h, n, func(int) float64 { return rng.f32(10) })
	bb, _ := allocF32(h, n, func(int) float64 { return rng.f32(10) })
	cb, cv := allocF32(h, n, func(int) float64 { return rng.f32(10) })

	wantB := make([]float64, n)
	wantC := make([]float64, n)
	wantA := make([]float64, n)
	for i := 0; i < n; i++ {
		wantB[i] = float64(float32(s) * float32(cv[i]))
		wantC[i] = float64(float32(av[i]) + float32(wantB[i]))
		wantA[i] = float64(float32(wantB[i]) + float32(s)*float32(wantC[i]))
	}

	w := arch.W4
	var bld *program.Builder
	if v == UVE {
		b := program.NewBuilder("stream-UVE")
		b.I(isa.VDup(w, isa.V(9), isa.F(1)))
		// Scale: b = s·c.
		b.ConfigStream(0, ld1(cb, w, n))
		b.ConfigStream(1, st1(bb, w, n))
		b.Label("scale")
		b.I(isa.VFMul(w, isa.V(1), isa.V(9), isa.V(0), isa.None))
		b.I(isa.SBNotEnd(0, "scale"))
		// Add: c = a + b.
		b.ConfigStream(2, ld1(ab, w, n))
		b.ConfigStream(3, ld1(bb, w, n))
		b.ConfigStream(4, st1(cb, w, n))
		b.Label("add")
		b.I(isa.VFAdd(w, isa.V(4), isa.V(2), isa.V(3), isa.None))
		b.I(isa.SBNotEnd(2, "add"))
		// Triad: a = b + s·c.
		b.ConfigStream(5, ld1(bb, w, n))
		b.ConfigStream(6, ld1(cb, w, n))
		b.ConfigStream(7, st1(ab, w, n))
		b.Label("triad")
		b.I(isa.VFMulAdd(w, isa.V(7), isa.V(9), isa.V(6), isa.V(5)))
		b.I(isa.SBNotEnd(5, "triad"))
		b.I(isa.Halt())
		bld = b
	} else {
		// Baselines: three sequential vector loops sharing the map-1D shape.
		b := program.NewBuilder("stream-" + v.String())
		b.I(isa.VDup(w, isa.V(9), isa.F(1)))
		phase := func(tag string, ins []int, out int, emit func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg), scalar func(pb *program.Builder, in []isa.Reg, o isa.Reg)) {
			emitVecLoop(b, v, w, tag, ins, out, emit, scalar)
		}
		// Register args: x1=n, x2=a, x3=b, x4=c.
		phase("scale", []int{4}, 3, func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg) {
			pb.I(isa.VFMul(w, o, isa.V(9), in[0], pred))
		}, func(pb *program.Builder, in []isa.Reg, o isa.Reg) {
			pb.I(isa.FMul(w, o, isa.F(1), in[0]))
		})
		phase("add", []int{2, 3}, 4, func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg) {
			pb.I(isa.VFAdd(w, o, in[0], in[1], pred))
		}, func(pb *program.Builder, in []isa.Reg, o isa.Reg) {
			pb.I(isa.FAdd(w, o, in[0], in[1]))
		})
		phase("triad", []int{3, 4}, 2, func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg) {
			pb.I(isa.VMove(w, o, in[0]))
			pb.I(isa.VFMla(w, o, isa.V(9), in[1], pred))
		}, func(pb *program.Builder, in []isa.Reg, o isa.Reg) {
			pb.I(isa.FMadd(w, o, isa.F(1), in[1], in[0]))
		})
		b.I(isa.Halt())
		bld = b
	}

	inst := instance(bld, int64(12*n), func() error {
		if err := checkF32(h, "b", bb, wantB, 1e-5); err != nil {
			return err
		}
		if err := checkF32(h, "c", cb, wantC, 1e-5); err != nil {
			return err
		}
		return checkF32(h, "a", ab, wantA, 1e-5)
	})
	if v != UVE {
		inst.IntArgs[1] = uint64(n)
		inst.IntArgs[2] = ab
		inst.IntArgs[3] = bb
		inst.IntArgs[4] = cb
	}
	inst.FPArgs[1] = FPArg{W: w, V: s}
	return finalize(h, inst)
}

// emitVecLoop appends one whilelt-style (SVE) or fixed-width+tail (NEON)
// vector loop over n=x1 elements. ins/out are argument-register numbers
// holding base addresses.
func emitVecLoop(b *program.Builder, v Variant, w arch.ElemWidth, tag string,
	ins []int, out int,
	emit func(pb *program.Builder, pred isa.Reg, in []isa.Reg, o isa.Reg),
	scalar func(pb *program.Builder, in []isa.Reg, o isa.Reg)) {

	inRegs := make([]isa.Reg, len(ins))
	if v == SVE {
		b.I(isa.Li(isa.X(9), 0))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		b.Label(tag + "_loop")
		for i, a := range ins {
			inRegs[i] = isa.V(10 + i)
			b.I(isa.VLoad(w, inRegs[i], isa.X(a), isa.X(9), 0, isa.P(1)))
		}
		emit(b, isa.P(1), inRegs, isa.V(20))
		b.I(isa.VStore(w, isa.X(out), isa.X(9), 0, isa.V(20), isa.P(1)))
		b.I(isa.IncVL(w, isa.X(9), isa.X(9)))
		b.I(isa.Whilelt(w, isa.P(1), isa.X(9), isa.X(1)))
		b.I(isa.BFirst(isa.P(1), tag+"_loop"))
		return
	}
	lanes := lanesFor(NEON, w)
	b.I(isa.Li(isa.X(9), 0))
	b.I(isa.Li(isa.X(15), int64(lanes)))
	b.I(isa.Div(isa.X(10), isa.X(1), isa.X(15)))
	b.I(isa.Mul(isa.X(10), isa.X(10), isa.X(15)))
	b.I(isa.Beq(isa.X(10), isa.X(0), tag+"_tail"))
	b.Label(tag + "_loop")
	for i, a := range ins {
		inRegs[i] = isa.V(10 + i)
		b.I(isa.VLoad(w, inRegs[i], isa.X(a), isa.X(9), 0, isa.None))
	}
	emit(b, isa.None, inRegs, isa.V(20))
	b.I(isa.VStore(w, isa.X(out), isa.X(9), 0, isa.V(20), isa.None))
	b.I(isa.AddI(isa.X(9), isa.X(9), int64(lanes)))
	b.I(isa.Blt(isa.X(9), isa.X(10), tag+"_loop"))
	b.Label(tag + "_tail")
	b.I(isa.Bge(isa.X(9), isa.X(1), tag+"_done"))
	b.I(isa.Li(isa.X(11), int64(w)))
	b.I(isa.Mul(isa.X(12), isa.X(9), isa.X(11)))
	b.Label(tag + "_tloop")
	fin := make([]isa.Reg, len(ins))
	for i, a := range ins {
		fin[i] = isa.F(10 + i)
		b.I(isa.Add(isa.X(13), isa.X(a), isa.X(12)))
		b.I(isa.FLoad(w, fin[i], isa.X(13), 0))
	}
	scalar(b, fin, isa.F(20))
	b.I(isa.Add(isa.X(13), isa.X(out), isa.X(12)))
	b.I(isa.FStore(w, isa.X(13), 0, isa.F(20)))
	b.I(isa.Add(isa.X(12), isa.X(12), isa.X(11)))
	b.I(isa.AddI(isa.X(9), isa.X(9), 1))
	b.I(isa.Blt(isa.X(9), isa.X(1), tag+"_tloop"))
	b.Label(tag + "_done")
}
