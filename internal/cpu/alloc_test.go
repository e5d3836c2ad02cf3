package cpu

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
)

// newKernelMachine builds kernel id at size on the variant's Table I
// machine, as the simulator's run path does.
func newKernelMachine(t *testing.T, id string, v kernels.Variant, size int) *machine {
	t.Helper()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	inst := kernels.ByID(id).Build(h, v, size)
	if inst.Err != nil {
		t.Fatalf("%s/%s: %v", id, v, inst.Err)
	}
	var e *engine.Engine
	if v == kernels.UVE {
		ecfg := engine.DefaultConfig()
		ecfg.VecBytes = v.VecBytes()
		e = engine.New(ecfg, h)
	}
	cfg := DefaultConfig()
	cfg.VecBytes = v.VecBytes()
	c := New(cfg, inst.Prog, h, e)
	for r, val := range inst.IntArgs {
		c.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		c.SetFPReg(r, a.W, a.V)
	}
	return &machine{core: c, hier: h, eng: e}
}

// TestStepDoesNotAllocate: once warm, the cycle loop recycles its ROB
// entries, keeps its queues in fixed backing arrays and carries vector
// values inline, so a steady run allocates nothing per cycle. Allocations
// are counted per block of 1,000 Steps: AllocsPerRun floors its mean to an
// integer, so a per-Step count reads anything below one allocation per
// cycle as zero. GEMM/SVE covers the destructive-merge operand.
func TestStepDoesNotAllocate(t *testing.T) {
	spin := program.NewBuilder("spin").
		I(isa.Li(isa.X(1), 0)).
		I(isa.Li(isa.X(2), 1)).
		I(isa.Li(isa.X(3), 1<<40)). // bound: never reached
		Label("loop").
		I(isa.Add(isa.X(1), isa.X(1), isa.X(2))).
		I(isa.AddI(isa.X(2), isa.X(2), 1)).
		I(isa.Blt(isa.X(2), isa.X(3), "loop")).
		I(isa.Halt()).
		MustBuild()
	cases := []struct {
		name  string
		build func(t *testing.T) *machine
	}{
		{"scalar-loop", func(t *testing.T) *machine { return newMachine(t, spin, false) }},
		{"SAXPY/UVE", func(t *testing.T) *machine { return newKernelMachine(t, "C", kernels.UVE, 65536) }},
		{"GEMM/SVE", func(t *testing.T) *machine { return newKernelMachine(t, "D", kernels.SVE, 64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t)
			for i := 0; i < 20_000; i++ {
				m.core.Step()
			}
			before := m.core.Stats.Committed
			block := func() {
				for i := 0; i < 1000; i++ {
					m.core.Step()
				}
			}
			if allocs := testing.AllocsPerRun(5, block); allocs != 0 {
				t.Errorf("%.0f allocations per 1,000 cycles, want 0", allocs)
			}
			if m.core.Halted() {
				t.Fatal("halted while measuring: the workload is too small")
			}
			if m.core.Stats.Committed == before {
				t.Fatal("no instruction committed while measuring")
			}
		})
	}
}
