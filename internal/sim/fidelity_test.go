package sim_test

// The functional-tier differential oracle (the tentpole's acceptance
// property): every kernel, on every variant, at multiple sizes, interpreted
// by the functional tier must produce exactly the architectural results of
// the cycle-accurate machine — byte-identical final memory, identical
// committed-instruction counts, and the same unordered collision-pair sets
// from the shared sanitizer. Any divergence is a semantics drift between
// the two tiers and fails loudly with the kernel/variant/size cell.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runTier(t *testing.T, k *kernels.Kernel, v kernels.Variant, size int, f sim.Fidelity) *sim.Result {
	t.Helper()
	o := sim.DefaultOptions(v)
	o.Fidelity = f
	o.HashMem = true
	if v == kernels.UVE {
		o.Sanitize = sim.SanitizeOn
	}
	r, err := sim.Run(k, v, size, &o)
	if err != nil {
		t.Fatalf("%s/%s n=%d fidelity=%s: %v", k.ID, v, size, f, err)
	}
	return r
}

// TestFunctionalDifferential sweeps all kernels × all variants × a size
// grid through both tiers and compares their architectural results.
func TestFunctionalDifferential(t *testing.T) {
	scales := []int{16, 64}
	if testing.Short() {
		scales = []int{64}
	}
	cells := 0
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			sizes := map[int]bool{}
			for _, sc := range scales {
				sizes[bench.SizeFor(k, &bench.Options{Scale: sc})] = true
			}
			for size := range sizes {
				cyc := runTier(t, k, v, size, sim.Cycle)
				fn := runTier(t, k, v, size, sim.Functional)
				if fn.Cycles != 0 {
					t.Errorf("%s/%s n=%d: functional run reported cycles (%d)", k.ID, v, size, fn.Cycles)
				}
				if fn.MemHash != cyc.MemHash {
					t.Errorf("%s/%s n=%d: final memory diverged between tiers (functional %#x vs cycle %#x)",
						k.ID, v, size, fn.MemHash, cyc.MemHash)
				}
				if fn.Committed != cyc.Committed {
					t.Errorf("%s/%s n=%d: committed counts diverged (functional %d vs cycle %d)",
						k.ID, v, size, fn.Committed, cyc.Committed)
				}
				if fn.Core.CommittedByKind != cyc.Core.CommittedByKind {
					t.Errorf("%s/%s n=%d: per-kind commit counts diverged (functional %v vs cycle %v)",
						k.ID, v, size, fn.Core.CommittedByKind, cyc.Core.CommittedByKind)
				}
				if got, want := collisionPairs(fn), collisionPairs(cyc); got != want {
					t.Errorf("%s/%s n=%d: collision pairs diverged (functional %q vs cycle %q)",
						k.ID, v, size, got, want)
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("differential sweep covered no cells")
	}
}

// TestFunctionalRejectsTimingOptions: the functional tier has no cycles, so
// trace recording and fault injection are configuration errors, not silent
// no-ops.
func TestFunctionalRejectsTimingOptions(t *testing.T) {
	k := kernels.ByID("C")
	o := sim.DefaultOptions(kernels.UVE)
	o.Fidelity = sim.Functional
	o.Trace = trace.NewCollector(64, 0)
	if _, err := sim.Run(k, kernels.UVE, 64, &o); err == nil {
		t.Error("functional run with a trace recorder succeeded; want error")
	}
}

// TestUnimplementedOpBothTiers: an op neither tier models (the scatter
// vstoreg) fails the run with an error when it commits and is harmless on a
// wrong path, alike on both tiers.
func TestUnimplementedOpBothTiers(t *testing.T) {
	scatter := isa.Inst{Op: isa.OpVStoreG, Src1: isa.X(1), Src2: isa.V(0), Src3: isa.V(1), W: arch.W8}
	committed := program.NewBuilder("scatter").I(scatter).MustBuild()
	wrongPath := program.NewBuilder("scatter-wrong-path").
		I(isa.Li(isa.X(1), 1), isa.Bne(isa.X(1), isa.X(0), "end"), scatter).
		Label("end").I(isa.Halt()).MustBuild()

	for _, f := range []sim.Fidelity{sim.Functional, sim.Cycle} {
		run := func(p *program.Program) (*sim.Result, error) {
			o := sim.DefaultOptions(kernels.UVE)
			o.Fidelity = f
			h := mem.NewHierarchy(o.Hier)
			return sim.RunInstance(context.Background(), h, &kernels.Instance{Prog: p}, true, &o)
		}
		if _, err := run(committed); err == nil || !strings.Contains(err.Error(), "pc 0: unimplemented op vstoreg") {
			t.Errorf("%s tier, committed vstoreg: err = %v, want pc 0: unimplemented op vstoreg", f, err)
		}
		res, err := run(wrongPath)
		if err != nil {
			t.Fatalf("%s tier, vstoreg on a wrong path: %v", f, err)
		}
		if res.Committed != 3 {
			t.Errorf("%s tier, vstoreg on a wrong path: committed %d, want 3", f, res.Committed)
		}
	}
}
