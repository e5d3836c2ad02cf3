package uve_test

import (
	"math"
	"testing"

	uve "repro"
	"repro/internal/isa"
)

// TestQuickstartSaxpy runs the paper's Fig 4 saxpy end to end through the
// public API on the UVE machine.
func TestQuickstartSaxpy(t *testing.T) {
	const n, a = 1000, 2.5
	m := uve.NewMachine(uve.DefaultConfig())
	x := m.Float32s(n)
	y := m.Float32s(n)
	x.Fill(func(i int) float64 { return float64(i) })
	y.Fill(func(i int) float64 { return float64(2 * i) })

	b := uve.NewProgram("saxpy")
	b.ConfigStream(0, uve.NewLoadStream(x.Base, uve.W4).Linear(n, 1).MustBuild())
	b.ConfigStream(1, uve.NewLoadStream(y.Base, uve.W4).Linear(n, 1).MustBuild())
	b.ConfigStream(2, uve.NewStoreStream(y.Base, uve.W4).Linear(n, 1).MustBuild())
	b.I(uve.VDup(uve.W4, uve.V(3), uve.F(1)))
	b.Label("loop")
	b.I(uve.VFMul(uve.W4, uve.V(4), uve.V(3), uve.V(0), uve.None))
	b.I(uve.VFAdd(uve.W4, uve.V(2), uve.V(4), uve.V(1), uve.None))
	b.I(uve.BranchStreamNotEnd(0, "loop"))
	b.I(uve.Halt())

	res, err := m.Run(b.MustBuild(), uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(float32(a)*float32(i) + float32(2*i))
		if got := y.At(i); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	if res.Cycles <= 0 || res.Committed == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	// The streamed loop is 2 compute instructions + 1 branch per 16-lane
	// chunk: far fewer committed instructions than elements.
	if res.Committed > uint64(n) {
		t.Fatalf("committed %d instructions for %d elements", res.Committed, n)
	}
}

// TestDescriptorAddressesStandalone exercises the pattern model without a
// machine: the paper's Fig 3.B4 lower-triangular pattern.
func TestDescriptorAddressesStandalone(t *testing.T) {
	d := uve.NewLoadStream(0, uve.W4).
		Dim(0, 0, 1).
		Dim(0, 4, 10).
		Mod(uve.TargetSize, uve.ModAdd, 1, 4).
		MustBuild()
	got := uve.Addresses(d, nil)
	want := []uint64{0, 40, 44, 80, 84, 88, 120, 124, 128, 132}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i]*4/4*4 { // byte addresses, width 4, idx already scaled
			break
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBaselineMachinesRun checks the SVE and NEON configurations execute
// the same baseline program.
func TestBaselineMachinesRun(t *testing.T) {
	for _, cfg := range []uve.Config{uve.SVEConfig(), uve.NEONConfig()} {
		m := uve.NewMachine(cfg)
		src := m.Float32s(64)
		dst := m.Float32s(64)
		src.Fill(func(i int) float64 { return float64(i) })

		w := uve.W4
		b := uve.NewProgram("copy")
		b.I(uve.Li(uve.X(9), 0))
		b.I(uve.Whilelt(w, uve.P(1), uve.X(9), uve.X(1)))
		b.Label("loop")
		b.I(uve.VLoad(w, uve.V(1), uve.X(2), uve.X(9), 0, uve.P(1)))
		b.I(uve.VStore(w, uve.X(3), uve.X(9), 0, uve.V(1), uve.P(1)))
		b.I(uve.IncVL(w, uve.X(9), uve.X(9)))
		b.I(uve.Whilelt(w, uve.P(1), uve.X(9), uve.X(1)))
		b.I(uve.BFirst(uve.P(1), "loop"))
		b.I(uve.Halt())

		_, err := m.Run(b.MustBuild(),
			uve.IntArg(1, 64), uve.IntArg(2, src.Base), uve.IntArg(3, dst.Base))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if dst.At(i) != float64(i) {
				t.Fatalf("VecBytes=%d: dst[%d] = %v", m.VecBytes(), i, dst.At(i))
			}
		}
	}
}

// TestIndirectGatherPublicAPI runs an indirect (gather) stream through the
// public API: out[i] = table[idx[i]].
func TestIndirectGatherPublicAPI(t *testing.T) {
	const n = 200
	m := uve.NewMachine(uve.DefaultConfig())
	table := m.Float32s(512)
	table.Fill(func(i int) float64 { return math.Sqrt(float64(i)) })
	idx := m.Uint64s(n)
	idx.Fill(func(i int) uint64 { return uint64((i * 37) % 512) })
	out := m.Float32s(n)

	b := uve.NewProgram("gather")
	b.ConfigStream(0, uve.NewLoadStream(idx.Base, uve.W8).Linear(n, 1).MustBuild())
	b.ConfigStream(1, uve.NewLoadStream(table.Base, uve.W4).
		Dim(0, n, 0).
		Indirect(uve.TargetOffset, uve.ModSetValue, 0).
		MustBuild())
	b.ConfigStream(2, uve.NewStoreStream(out.Base, uve.W4).Linear(n, 1).MustBuild())
	b.Label("loop")
	b.I(uve.VMove(uve.W4, uve.V(2), uve.V(1)))
	b.I(uve.BranchStreamNotEnd(1, "loop"))
	b.I(uve.Halt())

	if _, err := m.Run(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := table.At(int(idx.At(i)))
		if got := out.At(i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestPackedVectorEdgeCases pins the behaviour of vector values at the edges
// of their inline 64-byte image, on both execution tiers: a lane keeps only
// its width's bits (vdupx.w of a value above 2^32 broadcasts its low 32
// bits), and a gather reads at most as many lanes as its destination width
// holds (a .d gather indexed by 16 .w lanes reads 8).
func TestPackedVectorEdgeCases(t *testing.T) {
	t.Run("dupx-truncates", func(t *testing.T) {
		b := uve.NewProgram("dupx")
		b.I(uve.VDupX(uve.W4, uve.V(1), uve.X(2)))
		b.I(isa.VLoadG(uve.W4, uve.V(2), uve.X(1), uve.V(1), uve.None))
		b.I(uve.VStore(uve.W4, uve.X(3), uve.X(0), 0, uve.V(2), uve.None))
		b.I(uve.Halt())
		checkBothTiers(t, b.MustBuild(), func(m *uve.Machine) ([]uve.Arg, func(int) uint64) {
			in, out := m.Float32s(64), m.Float32s(16)
			in.Fill(func(i int) float64 { return float64(i + 1) })
			args := []uve.Arg{uve.IntArg(1, in.Base), uve.IntArg(2, 1<<32+3), uve.IntArg(3, out.Base)}
			return args, func(i int) uint64 { return uint64(out.At(i)) }
		}, []uint64{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	})
	t.Run("gather-clamps", func(t *testing.T) {
		b := uve.NewProgram("gather")
		b.I(uve.VDupX(uve.W4, uve.V(1), uve.X(2)))
		b.I(isa.VLoadG(uve.W8, uve.V(2), uve.X(1), uve.V(1), uve.None))
		b.I(uve.VStore(uve.W8, uve.X(3), uve.X(0), 0, uve.V(2), uve.None))
		b.I(uve.Halt())
		checkBothTiers(t, b.MustBuild(), func(m *uve.Machine) ([]uve.Arg, func(int) uint64) {
			in, out := m.Uint64s(64), m.Uint64s(16)
			in.Fill(func(i int) uint64 { return uint64(i + 1) })
			args := []uve.Arg{uve.IntArg(1, in.Base), uve.IntArg(2, 2), uve.IntArg(3, out.Base)}
			return args, out.At
		}, []uint64{3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0})
	})
}

// checkBothTiers runs p on the SVE machine at both fidelities. setup
// allocates the run's data and returns its arguments and an output reader;
// both tiers must produce want.
func checkBothTiers(t *testing.T, p *uve.Program, setup func(m *uve.Machine) ([]uve.Arg, func(int) uint64), want []uint64) {
	t.Helper()
	for _, f := range []uve.Fidelity{uve.Cycle, uve.Functional} {
		m := uve.NewMachine(uve.SVEConfig(), uve.WithFidelity(f))
		args, out := setup(m)
		if _, err := m.Run(p, args...); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		for i, w := range want {
			if got := out(i); got != w {
				t.Fatalf("%v: out[%d] = %d, want %d", f, i, got, w)
			}
		}
	}
}

// TestUVEFasterThanBaseline is the headline property at API level.
func TestUVEFasterThanBaseline(t *testing.T) {
	const n = 4096
	run := func(cfg uve.Config, streaming bool) int64 {
		m := uve.NewMachine(cfg)
		x := m.Float32s(n)
		y := m.Float32s(n)
		x.Fill(func(i int) float64 { return 1 })
		y.Fill(func(i int) float64 { return 2 })
		w := uve.W4
		b := uve.NewProgram("saxpy")
		if streaming {
			b.ConfigStream(0, uve.NewLoadStream(x.Base, w).Linear(n, 1).MustBuild())
			b.ConfigStream(1, uve.NewLoadStream(y.Base, w).Linear(n, 1).MustBuild())
			b.ConfigStream(2, uve.NewStoreStream(y.Base, w).Linear(n, 1).MustBuild())
			b.I(uve.VDup(w, uve.V(3), uve.F(1)))
			b.Label("loop")
			b.I(uve.VFMul(w, uve.V(4), uve.V(3), uve.V(0), uve.None))
			b.I(uve.VFAdd(w, uve.V(2), uve.V(4), uve.V(1), uve.None))
			b.I(uve.BranchStreamNotEnd(0, "loop"))
		} else {
			b.I(uve.VDup(w, uve.V(3), uve.F(1)))
			b.I(uve.Li(uve.X(9), 0))
			b.I(uve.Whilelt(w, uve.P(1), uve.X(9), uve.X(1)))
			b.Label("loop")
			b.I(uve.VLoad(w, uve.V(1), uve.X(2), uve.X(9), 0, uve.P(1)))
			b.I(uve.VLoad(w, uve.V(2), uve.X(3), uve.X(9), 0, uve.P(1)))
			b.I(uve.VFMla(w, uve.V(2), uve.V(3), uve.V(1), uve.P(1)))
			b.I(uve.VStore(w, uve.X(3), uve.X(9), 0, uve.V(2), uve.P(1)))
			b.I(uve.IncVL(w, uve.X(9), uve.X(9)))
			b.I(uve.Whilelt(w, uve.P(1), uve.X(9), uve.X(1)))
			b.I(uve.BFirst(uve.P(1), "loop"))
		}
		b.I(uve.Halt())
		res, err := m.Run(b.MustBuild(),
			uve.FloatArg(1, w, 2.0),
			uve.IntArg(1, n), uve.IntArg(2, x.Base), uve.IntArg(3, y.Base))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	uveCycles := run(uve.DefaultConfig(), true)
	sveCycles := run(uve.SVEConfig(), false)
	if uveCycles >= sveCycles {
		t.Fatalf("UVE %d cycles ≥ SVE %d cycles", uveCycles, sveCycles)
	}
}

// TestEstimateCostSaxpy validates the public static cost model entry point
// against a real run: the exact committed-instruction prediction must equal
// the measured count and every cycle bound must hold.
func TestEstimateCostSaxpy(t *testing.T) {
	const n, a = 1000, 2.5
	m := uve.NewMachine(uve.DefaultConfig())
	x := m.Float32s(n)
	y := m.Float32s(n)
	x.Fill(func(i int) float64 { return float64(i) })
	y.Fill(func(i int) float64 { return float64(2 * i) })

	b := uve.NewProgram("saxpy")
	b.ConfigStream(0, uve.NewLoadStream(x.Base, uve.W4).Linear(n, 1).MustBuild())
	b.ConfigStream(1, uve.NewLoadStream(y.Base, uve.W4).Linear(n, 1).MustBuild())
	b.ConfigStream(2, uve.NewStoreStream(y.Base, uve.W4).Linear(n, 1).MustBuild())
	b.I(uve.VDup(uve.W4, uve.V(3), uve.F(1)))
	b.Label("loop")
	b.I(uve.VFMul(uve.W4, uve.V(4), uve.V(3), uve.V(0), uve.None))
	b.I(uve.VFAdd(uve.W4, uve.V(2), uve.V(4), uve.V(1), uve.None))
	b.I(uve.BranchStreamNotEnd(0, "loop"))
	b.I(uve.Halt())
	p := b.MustBuild()

	est, err := m.EstimateCost(p, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Exact {
		t.Fatalf("saxpy is pure affine; estimate must be exact: %v", est.Diags)
	}
	res, err := m.Run(p, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Committed.IsExact() || est.Committed.Value() != res.Committed {
		t.Fatalf("predicted committed %s, measured %d", est.Committed, res.Committed)
	}
	if est.Bounds.Best <= 0 || est.Bounds.Best > res.Cycles {
		t.Fatalf("cycle lower bound %d (%s) exceeds measured %d cycles",
			est.Bounds.Best, est.Bounds.BestName, res.Cycles)
	}
	// All three streams are length-n and fully consumed.
	if len(est.Streams) != 3 {
		t.Fatalf("want 3 streams, got %d", len(est.Streams))
	}
	for _, s := range est.Streams {
		if !s.Elems.IsExact() || s.Elems.Value() != n {
			t.Fatalf("u%d: elems %s, want exactly %d", s.U, s.Elems, n)
		}
		if !s.Complete {
			t.Fatalf("u%d: stream not statically complete", s.U)
		}
	}
}
