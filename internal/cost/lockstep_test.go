package cost

import (
	"testing"

	"repro/internal/funcsim"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// TestStaticLockstep runs the static domain one instruction behind the
// functional tier over every kernel and variant at its default size: until
// the static run stops, both must stand at the same pc with every integer
// register the static run knows equal to the concrete value, and a static
// run that finishes must commit what the functional tier commits.
func TestStaticLockstep(t *testing.T) {
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
			inst := k.Build(h, v, k.DefaultSize)
			if inst.Err != nil {
				t.Fatalf("%s/%s: build: %v", k.ID, v, inst.Err)
			}
			a := newStatic(inst.Prog, v.VecBytes(), DefaultWalkElems)
			fm := funcsim.New(funcsim.Config{VecBytes: v.VecBytes()}, inst.Prog, h.Mem)
			for r, x := range inst.IntArgs {
				a.m.SetReg(isa.X(r), interp.Val{V: x, Known: true})
				fm.SetIntReg(r, x)
			}
			for r, x := range inst.FPArgs {
				fm.SetFPReg(r, x.W, x.V)
			}

			pc, step := 0, 0
			stopped, finished := false, false
			fm.SetStepHook(func(fpc int) {
				if stopped {
					return
				}
				fail := func(format string, args ...any) {
					t.Errorf("%s/%s: step %d: "+format, append([]any{k.ID, v, step}, args...)...)
					stopped = true
				}
				if fpc != pc {
					fail("functional tier at pc %d, static run at pc %d", fpc, pc)
					return
				}
				for r, x := range a.m.Int {
					if x.Known && x.V != fm.IntReg(r) {
						fail("pc %d: static x%d = %d, functional %d", pc, r, x.V, fm.IntReg(r))
						return
					}
				}
				next, halt, err := a.m.Step(pc)
				step++
				switch {
				case err != nil:
					stopped = true
				case halt:
					stopped, finished = true, true
				default:
					pc = next
				}
			})
			if err := fm.Run(); err != nil {
				t.Fatalf("%s/%s: functional run: %v", k.ID, v, err)
			}
			if finished && (a.m.Committed != fm.Committed() || a.m.ByKind != fm.CommittedByKind()) {
				t.Errorf("%s/%s: static run committed %d %v, functional %d %v",
					k.ID, v, a.m.Committed, a.m.ByKind, fm.Committed(), fm.CommittedByKind())
			}
		}
	}
}
