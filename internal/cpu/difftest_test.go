package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// genProgram builds a random but always-terminating program: a prologue of
// random ALU/memory ops, a counted loop whose body mixes data-dependent
// branches, ALU ops and memory traffic, and an epilogue.
func genProgram(rng *rand.Rand, memBase uint64) *program.Program {
	b := program.NewBuilder("fuzz")
	// x20 = memory base; x21 = loop counter; x22 = loop bound.
	b.I(isa.Li(isa.X(20), int64(memBase)))
	b.I(isa.Li(isa.X(21), 0))
	b.I(isa.Li(isa.X(22), int64(8+rng.Intn(60))))

	randReg := func() isa.Reg { return isa.X(1 + rng.Intn(15)) }
	randF := func() isa.Reg { return isa.F(1 + rng.Intn(10)) }
	emitRandom := func(allowSkip bool, tag string) {
		switch rng.Intn(13) {
		case 0:
			b.I(isa.Li(randReg(), int64(rng.Intn(1000))-500))
		case 1:
			b.I(isa.Add(randReg(), randReg(), randReg()))
		case 2:
			b.I(isa.Sub(randReg(), randReg(), randReg()))
		case 3:
			b.I(isa.Mul(randReg(), randReg(), randReg()))
		case 4:
			b.I(isa.AndI(randReg(), randReg(), int64(rng.Intn(255))))
		case 5:
			b.I(isa.AddI(randReg(), randReg(), int64(rng.Intn(64))-32))
		case 6:
			// Store then load within a small window: exercises forwarding.
			off := int64(8 * rng.Intn(16))
			b.I(isa.Store(arch.W8, isa.X(20), off, randReg()))
			b.I(isa.Load(arch.W8, randReg(), isa.X(20), off))
		case 7:
			off := int64(8 * rng.Intn(16))
			b.I(isa.Load(arch.W8, randReg(), isa.X(20), off))
		case 8:
			if allowSkip {
				// Data-dependent forward branch (mispredict generator).
				skip := tag
				b.I(isa.AndI(isa.X(19), randReg(), 3))
				b.I(isa.Bne(isa.X(19), isa.X(0), skip))
				b.I(isa.AddI(randReg(), randReg(), 7))
				b.Label(skip)
			} else {
				b.I(isa.SllI(randReg(), randReg(), int64(rng.Intn(8))))
			}
		case 9:
			b.I(isa.Slt(randReg(), randReg(), randReg()))
		case 10:
			// FP chain: load-immediate, arithmetic, occasional store+load.
			b.I(isa.FLi(arch.W8, randF(), float64(rng.Intn(100))-50))
			b.I(isa.FAdd(arch.W8, randF(), randF(), randF()))
		case 11:
			b.I(isa.FMul(arch.W8, randF(), randF(), randF()))
			b.I(isa.FMadd(arch.W8, randF(), randF(), randF(), randF()))
		case 12:
			off := int64(8 * (16 + rng.Intn(8)))
			b.I(isa.FStore(arch.W8, isa.X(20), off, randF()))
			b.I(isa.FLoad(arch.W8, randF(), isa.X(20), off))
		}
	}
	for i := 0; i < 4+rng.Intn(8); i++ {
		emitRandom(false, "")
	}
	b.Label("loop")
	for i := 0; i < 3+rng.Intn(10); i++ {
		emitRandom(true, "skip"+string(rune('a'+i))+"x")
	}
	b.I(isa.AddI(isa.X(21), isa.X(21), 1))
	b.I(isa.Blt(isa.X(21), isa.X(22), "loop"))
	for i := 0; i < 3; i++ {
		emitRandom(false, "")
	}
	b.I(isa.Halt())
	return b.MustBuild()
}

// TestDifferentialRandomPrograms runs random programs on both the
// out-of-order core and the functional tier (internal/funcsim), the
// sequential oracle, and requires identical architectural state: registers
// and memory.
func TestDifferentialRandomPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		hc := mem.DefaultHierarchyConfig()
		h := mem.NewHierarchy(hc)
		memBase := h.Mem.Alloc(256, 64)
		p := genProgram(rng, memBase)

		cfg := DefaultConfig()
		cfg.Watchdog = 500_000
		core := New(cfg, p, h, nil)
		refMem := mem.NewMemory()
		if refBase := refMem.Alloc(256, 64); refBase != memBase {
			t.Fatalf("allocator divergence: %#x vs %#x", refBase, memBase)
		}
		ref := funcsim.New(funcsim.Config{VecBytes: cfg.VecBytes, MaxInsts: 1_000_000}, p, refMem)
		// Same initial register noise for both.
		for i := 1; i < 16; i++ {
			v := uint64(rng.Int63n(1 << 20))
			core.SetIntReg(i, v)
			ref.SetIntReg(i, v)
		}
		core.Run()
		if err := ref.Run(); err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}

		for i := 1; i < 23; i++ {
			if got, want := core.IntReg(i), ref.IntReg(i); got != want {
				t.Fatalf("trial %d: x%d = %#x, want %#x\nprogram:\n%s", trial, i, got, want, p)
			}
		}
		for i := 1; i < 11; i++ {
			got := isa.FloatBits(arch.W8, core.FPReg(i, arch.W8))
			want := isa.FloatBits(arch.W8, ref.FPReg(i, arch.W8))
			if got != want {
				t.Fatalf("trial %d: f%d = %#x, want %#x\nprogram:\n%s", trial, i, got, want, p)
			}
		}
		for off := 0; off < 256; off += 8 {
			a := memBase + uint64(off)
			if got, want := h.Mem.Read(a, arch.W8), refMem.Read(a, arch.W8); got != want {
				t.Fatalf("trial %d: mem[%#x] = %#x, want %#x\nprogram:\n%s", trial, a, got, want, p)
			}
		}
	}
}
