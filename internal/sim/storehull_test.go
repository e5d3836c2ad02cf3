package sim_test

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
)

// TestScalarLoadWaitsForModifiedStoreStream: a scalar load of an element an
// older, uncommitted output-stream chunk writes must wait for that chunk,
// however far a static modifier moves the element. Two dependent missing
// loads hold commit back while four vdupx fill the stream's chunks with 7;
// the load of the last chunk's final element must then read 7 on both
// tiers, not the stale 0 in memory.
func TestScalarLoadWaitsForModifiedStoreStream(t *testing.T) {
	cases := []struct {
		name string
		desc func(base uint64) *descriptor.Descriptor
		elem int64 // the element the scalar load reads
	}{
		{"stride modifier", func(base uint64) *descriptor.Descriptor {
			return descriptor.New(base, arch.W4, descriptor.Store).
				Dim(0, 4, 1).Dim(0, 4, 0).Mod(descriptor.TargetStride, descriptor.Add, 4, 4).MustBuild()
		}, 51},
		{"offset modifier on dimension 1", func(base uint64) *descriptor.Descriptor {
			return descriptor.New(base, arch.W4, descriptor.Store).
				Dim(0, 4, 1).Dim(0, 1, 8).Dim(0, 4, 0).Mod(descriptor.TargetOffset, descriptor.Add, 1, 4).MustBuild()
		}, 35},
	}
	for _, tc := range cases {
		for _, f := range []sim.Fidelity{sim.Functional, sim.Cycle} {
			o := sim.DefaultOptions(kernels.UVE)
			o.Fidelity = f
			h := mem.NewHierarchy(o.Hier)
			out := h.Mem.Alloc(256, 64)
			cold := h.Mem.Alloc(2*arch.PageSize, 64)
			h.Mem.Write(cold, arch.W8, arch.PageSize)
			res := h.Mem.Alloc(8, 8)

			b := program.NewBuilder("store-hull").ConfigStream(0, tc.desc(out)).I(
				isa.Load(arch.W8, isa.X(3), isa.X(1), 0),
				isa.Add(isa.X(4), isa.X(1), isa.X(3)),
				isa.Load(arch.W8, isa.X(5), isa.X(4), 0),
				isa.Li(isa.X(7), 7))
			for range 4 {
				b.I(isa.VDupX(arch.W4, isa.V(0), isa.X(7)))
			}
			p := b.I(
				isa.Load(arch.W4, isa.X(6), isa.X(2), tc.elem*4),
				isa.Store(arch.W4, isa.X(8), 0, isa.X(6)),
				isa.Halt()).MustBuild()
			inst := &kernels.Instance{Prog: p, IntArgs: map[int]uint64{1: cold, 2: out, 8: res}}
			if _, err := sim.RunInstance(context.Background(), h, inst, true, &o); err != nil {
				t.Fatalf("%s, %s tier: %v", tc.name, f, err)
			}
			if got := h.Mem.Read(res, arch.W4); got != 7 {
				t.Errorf("%s, %s tier: the load of element %d read %d, want 7", tc.name, f, tc.elem, got)
			}
		}
	}
}
