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
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/descriptor"
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

// opProgram returns a minimal program that runs op, and the pc op runs at.
// A prologue presets the operands from the data extent at data; an epilogue
// stores every register an op here writes into the dump extent (x9), so
// the final memory shows the result.
func opProgram(op isa.Op, data uint64) (*program.Program, int) {
	const w = arch.W4
	x, f, u, p := isa.X, isa.F, isa.V, isa.P
	b := program.NewBuilder(op.Name()).I(
		isa.VLoad(w, u(1), x(1), x(0), 0, isa.None),
		isa.VLoad(w, u(2), x(1), x(0), 16, isa.None),
		isa.VLoad(w, u(3), x(1), x(0), 32, isa.None),
		isa.Whilelt(w, p(1), x(0), x(2)))
	pc := 4
	if op.IsStreamBranch() || op == isa.OpSCfg || op.Kind() == isa.KindStreamCtl {
		pc += streamOpBody(b, op, data)
	} else {
		in := opInst(op)
		b.I(in)
		if in.Label != "" {
			b.I(isa.Li(x(5), 1)).Label(in.Label)
		}
	}
	return b.I(
		isa.Store(arch.W8, x(9), 0, x(4)), isa.Store(arch.W8, x(9), 8, x(5)),
		isa.FStore(w, x(9), 16, f(1)), isa.FStore(w, x(9), 20, f(4)),
		isa.VStore(w, x(9), x(0), 8, u(3), isa.None), isa.VStore(w, x(9), x(0), 24, u(4), isa.None),
		isa.VStore(w, x(9), x(0), 40, u(6), isa.None), isa.VStore(w, x(9), x(0), 56, u(7), isa.None),
		isa.VStore(w, x(9), x(0), 72, u(2), p(2)), // p2's active lanes
		isa.Halt()).MustBuild(), pc
}

// opInst shapes op by the register classes it reads and writes. A branch
// skips to its label over one li.
func opInst(op isa.Op) isa.Inst {
	const w = arch.W4
	x, f, u, p := isa.X, isa.F, isa.V, isa.P
	switch k := op.Kind(); {
	case k == isa.KindFPALU:
		in := isa.Inst{Op: op, W: w, Dst: f(4), Src1: f(1), Src2: f(2), Src3: f(3), Imm: int64(math.Float32bits(1.25))}
		switch op {
		case isa.OpFLt, isa.OpFLe, isa.OpFtoI:
			in.Dst = x(4)
		case isa.OpItoF:
			in.Src1 = x(2)
		}
		return in
	case op == isa.OpVExtract:
		return isa.Inst{Op: op, W: w, Dst: f(1), Src1: u(2), Imm: 2}
	case op == isa.OpWhilelt || op == isa.OpPTrue:
		return isa.Inst{Op: op, W: w, Dst: p(2), Src1: x(2), Src2: x(3)}
	case op == isa.OpPNot:
		return isa.Inst{Op: op, W: w, Dst: p(2), Src1: p(1)}
	case k == isa.KindVecALU:
		in := isa.Inst{Op: op, W: w, Dst: u(4), Src1: u(1), Src2: u(2), Src3: u(3), Pred: p(1)}
		switch op {
		case isa.OpVDup:
			in.Src1 = f(1)
		case isa.OpVDupX:
			in.Src1 = x(2)
		case isa.OpVFMla: // destructive: merges into u3 beyond p1's lanes
			in.Dst = u(3)
		case isa.OpVFAddVF, isa.OpVFMaxVF, isa.OpVFMinVF:
			in.Dst = f(4)
		}
		return in
	case op == isa.OpLoad:
		return isa.Load(w, x(4), x(1), 12)
	case op == isa.OpFLoad:
		return isa.FLoad(w, f(4), x(1), 12)
	case op == isa.OpVLoad:
		return isa.VLoad(w, u(4), x(1), x(2), 4, p(1))
	case op == isa.OpVLoadG:
		return isa.VLoadG(w, u(4), x(1), u(1), p(1))
	case op == isa.OpStore:
		return isa.Store(w, x(10), 8, x(2))
	case op == isa.OpFStore:
		return isa.FStore(w, x(10), 16, f(1))
	case op == isa.OpVStore:
		return isa.VStore(w, x(10), x(2), 4, u(2), p(1))
	case op == isa.OpVStoreG:
		return isa.Inst{Op: op, W: w, Src1: x(10), Src2: u(1), Src3: u(2), Pred: p(1)}
	case op == isa.OpBFirst || op == isa.OpBNone:
		return isa.Inst{Op: op, Src1: p(1), Label: "skip"}
	case k == isa.KindBranch:
		return isa.Inst{Op: op, Src1: x(2), Src2: x(3), Label: "skip"}
	}
	// The integer ALU and vector-length ops, nop and halt.
	return isa.Inst{Op: op, W: w, Dst: x(4), Src1: x(2), Src2: x(3), Imm: 3}
}

// streamOpBody emits a program over the two-chunk load stream u5 that runs
// op, a stream configuration, control or branch op. It returns op's pc
// relative to the body.
func streamOpBody(b *program.Builder, op isa.Op, data uint64) int {
	const w = arch.W4
	u := isa.V
	b.ConfigStream(5, descriptor.New(data, w, descriptor.Load).Dim(0, 4, 1).Dim(0, 2, 4).MustBuild())
	switch op {
	case isa.OpSCfg:
		b.I(isa.VMove(w, u(4), u(5)), isa.VMove(w, u(6), u(5)))
		return 0
	case isa.OpSSuspend, isa.OpSResume:
		b.I(isa.SSuspend(5), isa.VMove(w, u(4), u(5)), isa.SResume(5), isa.VMove(w, u(6), u(5)), isa.VMove(w, u(7), u(5)))
		if op == isa.OpSResume {
			return 4
		}
		return 2
	case isa.OpSStop:
		b.I(isa.VMove(w, u(4), u(5)), isa.SStop(5), isa.VMove(w, u(6), u(5)))
	case isa.OpSForce:
		b.I(isa.SSuspend(5), isa.SForce(5), isa.SResume(5), isa.VMove(w, u(4), u(5)), isa.VMove(w, u(6), u(5)))
	case isa.OpSBNotEnd, isa.OpSBDimNotEnd: // loop while the stream (dimension 1) goes on
		b.Label("loop").I(isa.VMove(w, u(4), u(5)), isa.Inst{Op: op, Src1: u(5), Imm: 1, Label: "loop"})
	default: // leave the loop once the stream (dimension 1) ends
		b.Label("loop").I(isa.VMove(w, u(4), u(5)), isa.Inst{Op: op, Src1: u(5), Imm: 1, Label: "out"}, isa.J("loop")).Label("out")
	}
	return 3
}

// TestEveryOpBothTiers runs every op in a minimal program on both tiers.
// Both must end with the same committed count and final memory, which
// holds every register the op wrote, or both must fail at the op's pc
// naming it. The scatter vstoreg is the one op neither tier models; on a
// wrong path it is harmless on both.
func TestEveryOpBothTiers(t *testing.T) {
	run := func(f sim.Fidelity, build func(data uint64) *program.Program) (*sim.Result, *mem.Hierarchy, error) {
		o := sim.DefaultOptions(kernels.UVE)
		o.Fidelity = f
		h := mem.NewHierarchy(o.Hier)
		data := h.Mem.Alloc(256, 64)
		for i := range uint64(16) {
			h.Mem.Write(data+4*i, arch.W4, i+1) // u1: gather indices
			h.Mem.Write(data+64+4*i, arch.W4, uint64(math.Float32bits(1+0.25*float32(i))))
			h.Mem.Write(data+128+4*i, arch.W4, uint64(math.Float32bits(3-0.5*float32(i))))
		}
		dump, out := h.Mem.Alloc(512, 64), h.Mem.Alloc(256, 64)
		inst := &kernels.Instance{
			Prog:    build(data),
			IntArgs: map[int]uint64{1: data, 2: 3, 3: 5, 9: dump, 10: out},
			FPArgs:  map[int]kernels.FPArg{1: {W: arch.W4, V: 9}, 2: {W: arch.W4, V: 2.5}, 3: {W: arch.W4, V: 0.5}},
		}
		res, err := sim.RunInstance(context.Background(), h, inst, true, &o)
		return res, h, err
	}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		t.Run(op.Name(), func(t *testing.T) {
			var pc int
			build := func(data uint64) *program.Program {
				p, at := opProgram(op, data)
				if got := p.At(at).Op; got != op {
					t.Fatalf("pc %d holds %s, not the op under test", at, got.Name())
				}
				pc = at
				return p
			}
			fn, fh, ferr := run(sim.Functional, build)
			cyc, ch, cerr := run(sim.Cycle, build)
			if op == isa.OpVStoreG {
				want := fmt.Sprintf("pc %d: unimplemented op %s", pc, op.Name())
				for _, err := range []error{ferr, cerr} {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("err = %v, want %s on both tiers", err, want)
					}
				}
				return
			}
			if ferr != nil || cerr != nil {
				t.Fatalf("functional tier: %v; cycle tier: %v", ferr, cerr)
			}
			if fn.Committed != cyc.Committed {
				t.Errorf("committed %d on the functional tier, %d on the cycle tier", fn.Committed, cyc.Committed)
			}
			if fm, cm := fh.Mem.HashExtents(), ch.Mem.HashExtents(); fm != cm {
				t.Errorf("final memory diverged: functional %#x, cycle %#x", fm, cm)
			}
			if op == isa.OpVExtract {
				// f1 (dumped at byte 16) holds lane 2 of u2.
				dump := fh.Mem.Extents()[1].Base
				if got, want := fh.Mem.Read(dump+16, arch.W4), uint64(math.Float32bits(1.5)); got != want {
					t.Errorf("vextract wrote f1 = %#x, want lane 2's bits %#x", got, want)
				}
			}
		})
	}

	scatter := isa.Inst{Op: isa.OpVStoreG, Src1: isa.X(1), Src2: isa.V(0), Src3: isa.V(1), W: arch.W8}
	wrongPath := program.NewBuilder("scatter-wrong-path").
		I(isa.Li(isa.X(1), 1), isa.Bne(isa.X(1), isa.X(0), "end"), scatter).
		Label("end").I(isa.Halt()).MustBuild()
	for _, f := range []sim.Fidelity{sim.Functional, sim.Cycle} {
		res, _, err := run(f, func(uint64) *program.Program { return wrongPath })
		if err != nil {
			t.Fatalf("%s tier, vstoreg on a wrong path: %v", f, err)
		}
		if res.Committed != 3 {
			t.Errorf("%s tier, vstoreg on a wrong path: committed %d, want 3", f, res.Committed)
		}
	}
}
