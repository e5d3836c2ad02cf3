package absint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

const w = arch.W4

func mustBuild(t *testing.T, b *program.Builder) *program.Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// --- lattice property tests ---

// randIv draws an interval biased toward the boundary regions where the
// modular arithmetic is interesting.
func randIv(rng *rand.Rand) Interval {
	pick := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return uint64(rng.Intn(64))
		case 1:
			return ^uint64(0) - uint64(rng.Intn(64))
		case 2:
			return 1<<63 - 1 - uint64(rng.Intn(4))
		case 3:
			return 1<<63 + uint64(rng.Intn(4))
		default:
			return rng.Uint64()
		}
	}
	a, b := pick(), pick()
	if a > b {
		a, b = b, a
	}
	return Interval{a, b}
}

// sample picks a value inside iv, preferring the endpoints.
func sample(rng *rand.Rand, iv Interval) uint64 {
	switch rng.Intn(3) {
	case 0:
		return iv.Lo
	case 1:
		return iv.Hi
	}
	span := iv.Hi - iv.Lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	return iv.Lo + rng.Uint64()%(span+1)
}

var propOps = []isa.Op{
	isa.OpLi, isa.OpMv, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv,
	isa.OpRem, isa.OpAddI, isa.OpSllI, isa.OpSrlI, isa.OpAndI,
	isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt, isa.OpSltI,
}

// TestEvalOpSoundness is the lattice property test: for random intervals
// and random concrete points inside them, the abstract result contains the
// concrete one.
func TestEvalOpSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		op := propOps[rng.Intn(len(propOps))]
		a, b := randIv(rng), randIv(rng)
		imm := int64(rng.Uint64())
		if rng.Intn(2) == 0 {
			imm = int64(rng.Intn(128)) - 64
		}
		av, bv := sample(rng, a), sample(rng, b)
		got := isa.EvalInt(op, av, bv, imm)
		iv := EvalOp(op, a, b, imm)
		if !iv.Contains(got) {
			t.Fatalf("%s: a=%v(%d) b=%v(%d) imm=%d: concrete %d outside %v",
				op.Name(), a, av, b, bv, imm, got, iv)
		}
	}
}

// TestEvalOpPointsExact checks that single values evaluate as isa.EvalInt
// does for every integer ALU op, so the dependence analyzer resolves every
// store address a constant lattice would: wrapping products and shifts,
// zero and negative divisors, and signed comparisons of negative values
// included.
func TestEvalOpPointsExact(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 1<<32 + 3, 1 << 62, 1<<63 - 1, 1 << 63, ^uint64(0) - 6, ^uint64(0)}
	imms := []int64{0, 1, -1, 3, 62, 63, 64, -64, math.MaxInt64, math.MinInt64}
	ops := 0
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		switch {
		case op.Kind() != isa.KindIntALU:
			continue
		case op == isa.OpIncVL || op == isa.OpGetVL || op == isa.OpSSetVL:
			continue // lane counts, not EvalInt's
		}
		ops++
		for _, a := range vals {
			for _, b := range vals {
				for _, imm := range imms {
					want := Point(isa.EvalInt(op, a, b, imm))
					if got := EvalOp(op, Point(a), Point(b), imm); got != want {
						t.Fatalf("%s(%#x, %#x, imm %d) = %v, want %v", op.Name(), a, b, imm, got, want)
					}
				}
			}
		}
	}
	if ops != 16 {
		t.Fatalf("checked %d integer ALU ops, want 16", ops)
	}
}

func TestIntervalModularAdd(t *testing.T) {
	// Wrapping range stays precise when the span fits.
	got := add(Interval{^uint64(0) - 1, ^uint64(0)}, Point(3))
	want := Interval{1, 2}
	if got != want {
		t.Fatalf("wrap add: got %v want %v", got, want)
	}
	// addi r, r, -1 on a point.
	if got := EvalOp(isa.OpAddI, Point(5), Top(), -1); got != Point(4) {
		t.Fatalf("addi -1: got %v", got)
	}
	// Span overflow degrades to Top.
	if got := add(Interval{0, 1 << 63}, Interval{0, 1 << 63}); !got.IsTop() {
		t.Fatalf("span overflow: got %v", got)
	}
}

func TestIntervalLattice(t *testing.T) {
	a, b := Interval{2, 5}, Interval{4, 9}
	if u := a.Union(b); u != (Interval{2, 9}) {
		t.Fatalf("union: %v", u)
	}
	if iv, ok := a.Intersect(b); !ok || iv != (Interval{4, 5}) {
		t.Fatalf("intersect: %v %v", iv, ok)
	}
	if _, ok := Point(1).Intersect(Point(2)); ok {
		t.Fatal("disjoint points intersected")
	}
	if !Top().Contains(0) || !Top().Contains(^uint64(0)) {
		t.Fatal("top misses values")
	}
}

// --- straight-line and branch-refinement behavior ---

func TestStraightLine(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("straight").I(
		isa.Li(isa.X(1), 10),
		isa.AddI(isa.X(2), isa.X(1), 5),
		isa.Mul(isa.X(3), isa.X(2), isa.X(2)),
		isa.SllI(isa.X(4), isa.X(1), 3),
		isa.Halt(),
	))
	r := Analyze(p, Options{})
	halt := p.Len() - 1
	for reg, want := range map[int]uint64{1: 10, 2: 15, 3: 225, 4: 80} {
		if got := r.At(halt, reg); got != Point(want) {
			t.Errorf("x%d: got %v want %d", reg, got, want)
		}
	}
	if ex, ok := r.MaxExec(halt); !ok || ex != 1 {
		t.Errorf("straight-line MaxExec: %d %v", ex, ok)
	}
}

func TestBranchRefinement(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("refine").
		I(isa.AndI(isa.X(1), isa.X(9), 15)). // x1 in [0,15]
		I(isa.Blt(isa.X(1), isa.X(2), "less")).
		I(isa.Halt()). // fallthrough: x1 >= 10
		Label("less").
		I(isa.Halt())) // taken: x1 < 10
	r := Analyze(p, Options{Entry: map[int]uint64{2: 10}})
	if got := r.At(2, 1); got != (Interval{10, 15}) {
		t.Errorf("ge edge: %v", got)
	}
	if got := r.At(3, 1); got != (Interval{0, 9}) {
		t.Errorf("lt edge: %v", got)
	}
}

func TestDeadEdge(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("dead").
		I(isa.Li(isa.X(1), 3)).
		I(isa.Beq(isa.X(1), isa.X(2), "eq")).
		I(isa.Halt()).
		Label("eq").
		I(isa.Halt()))
	r := Analyze(p, Options{Entry: map[int]uint64{2: 4}})
	if r.Reachable(3) {
		t.Error("3 == 4 edge should be dead")
	}
	if !r.Reachable(2) {
		t.Error("fallthrough must stay live")
	}
}

// --- counted scalar loop (Case B) ---

func TestCountedLoop(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("count").
		I(isa.Li(isa.X(1), 0)).
		Label("loop").
		I(isa.AddI(isa.X(1), isa.X(1), 1)).
		I(isa.Blt(isa.X(1), isa.X(2), "loop")).
		I(isa.Halt()))
	r := Analyze(p, Options{Entry: map[int]uint64{2: 100}})
	if got := r.At(3, 1); got != Point(100) {
		t.Errorf("exit value: got %v want 100", got)
	}
	trip, ok := r.LoopTrip(1)
	if !ok || trip < 100 || trip > 105 {
		t.Errorf("trip: %d %v", trip, ok)
	}
	if ex, ok := r.MaxExec(1); !ok || ex < 100 || ex > 105 {
		t.Errorf("MaxExec(body): %d %v", ex, ok)
	}
}

// --- whilelt/b.first loop (SVE shape) ---

func TestWhileltLoop(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("sve").
		I(isa.Li(isa.X(1), 0)).
		I(isa.Whilelt(w, isa.P(1), isa.X(1), isa.X(2))).
		Label("loop").
		I(isa.IncVL(w, isa.X(1), isa.X(1))).
		I(isa.Whilelt(w, isa.P(1), isa.X(1), isa.X(2))).
		I(isa.BFirst(isa.P(1), "loop")).
		I(isa.Halt()))
	r := Analyze(p, Options{Entry: map[int]uint64{2: 100}, VecBytes: 64})
	halt := p.Len() - 1
	got := r.At(halt, 1)
	if got.Lo != 100 {
		t.Errorf("exit lower bound: %v (want Lo=100)", got)
	}
	maxStep := uint64(arch.LanesFor(64, w))
	if got.Hi > 99+maxStep {
		t.Errorf("exit upper bound: %v (want Hi <= %d)", got, 99+maxStep)
	}
	if trip, ok := r.LoopTrip(2); !ok || trip < 100/maxStep || trip > 102 {
		t.Errorf("trip: %d %v", trip, ok)
	}
}

// --- stream-latched loops (Case A outer + Case C inner, HACCmk shape) ---

func streamLoop(t *testing.T, rows, n int, mutate func(*program.Builder) *program.Builder) *program.Program {
	t.Helper()
	d := descriptor.New(0x1000, w, descriptor.Load).
		Dim(0, int64(n), 1).Dim(0, int64(rows), 0).MustBuild()
	b := program.NewBuilder("stream").
		ConfigStream(0, d).
		I(isa.Li(isa.X(5), 0)).
		Label("outer").
		I(isa.SllI(isa.X(13), isa.X(5), 2)).
		Label("inner").
		I(isa.VMove(w, isa.V(4), isa.V(0))).
		I(isa.SBDimNotEnd(0, 0, "inner")).
		I(isa.AddI(isa.X(5), isa.X(5), 1)).
		I(isa.SBNotEnd(0, "outer"))
	if mutate != nil {
		b = mutate(b)
	}
	return mustBuild(t, b.I(isa.Halt()))
}

func TestStreamTripAndInduction(t *testing.T) {
	const rows, n = 40, 7
	p := streamLoop(t, rows, n, nil)
	r := Analyze(p, Options{})
	outer := p.Labels["outer"]
	inner := p.Labels["inner"]
	addi := inner + 2

	if trip, ok := r.LoopTrip(outer); !ok || trip != rows {
		t.Errorf("outer trip: %d %v (want %d)", trip, ok, rows)
	}
	// The induction clamp proves the loop counter's range.
	if got := r.At(addi, 5); got != (Interval{0, rows - 1}) {
		t.Errorf("induction clamp: %v want [0,%d]", got, rows-1)
	}
	if ex, ok := r.MaxExec(outer); !ok || ex != rows {
		t.Errorf("outer MaxExec: %d %v", ex, ok)
	}
	// Inner chunk loop: one advance per iteration, lanes unknown => one
	// element per chunk, n chunks per row.
	if ex, ok := r.MaxExec(inner); !ok || ex != rows*n {
		t.Errorf("inner MaxExec: %d %v (want %d)", ex, ok, rows*n)
	}
	if _, ok := r.MaxExec(p.Len() - 1); !ok {
		t.Error("halt MaxExec unknown")
	}
}

func TestStreamTripWithLanes(t *testing.T) {
	const rows, n = 4, 10
	p := streamLoop(t, rows, n, nil)
	r := Analyze(p, Options{VecBytes: 16}) // 4 lanes at W4
	inner := p.Labels["inner"]
	if ex, ok := r.MaxExec(inner); !ok || ex != rows*3 { // ceil(10/4)=3 chunks
		t.Errorf("inner MaxExec with lanes: %d %v (want %d)", ex, ok, rows*3)
	}
}

// TestWholeStreamTrip: an SBNotEnd latch without the dimension-0 crossing
// discipline Case A wants still gets a bound — the stream's total chunk
// count — because every iteration strictly advances the stream and the
// stream holds finitely many chunks.
func TestWholeStreamTrip(t *testing.T) {
	const rows, n = 8, 4
	d := descriptor.New(0x1000, w, descriptor.Load).
		Dim(0, int64(n), 1).Dim(0, int64(rows), 0).MustBuild()
	p := mustBuild(t, program.NewBuilder("nocross").
		ConfigStream(0, d).
		Label("outer").
		I(isa.VMove(w, isa.V(4), isa.V(0))).
		I(isa.SBNotEnd(0, "outer")).
		I(isa.Halt()))
	outer := p.Labels["outer"]

	// Lanes unknown: one element per chunk, rows*n chunks total.
	r := Analyze(p, Options{})
	if trip, ok := r.LoopTrip(outer); !ok || trip != rows*n {
		t.Errorf("whole-stream trip: %d %v (want %d)", trip, ok, rows*n)
	}
	// Fixed vector length: ceil(4/4)=1 chunk per row.
	r = Analyze(p, Options{VecBytes: 16}) // 4 lanes at W4
	if trip, ok := r.LoopTrip(outer); !ok || trip != rows {
		t.Errorf("whole-stream trip with lanes: %d %v (want %d)", trip, ok, rows)
	}
}

// --- negative corpus: anything impure must block trip proofs ---

func TestNegativeNoTrip(t *testing.T) {
	const rows, n = 8, 4
	cases := []struct {
		name   string
		mutate func(*program.Builder) *program.Builder
		build  func(t *testing.T) *program.Program
	}{
		{name: "suspended stream", mutate: func(b *program.Builder) *program.Builder {
			return b.I(isa.SSuspend(0))
		}},
		{name: "reconfigured stream", mutate: func(b *program.Builder) *program.Builder {
			d := descriptor.New(0x9000, w, descriptor.Load).Linear(int64(n), 1).MustBuild()
			return b.ConfigStream(0, d)
		}},
		{name: "modifier descriptor", build: func(t *testing.T) *program.Program {
			d := descriptor.New(0x1000, w, descriptor.Load).
				Dim(0, int64(n), 1).
				Dim(0, int64(rows), 0).
				Mod(descriptor.TargetOffset, descriptor.Add, 4, 0).
				MustBuild()
			return mustBuild(t, program.NewBuilder("mod").
				ConfigStream(0, d).
				Label("outer").
				I(isa.SllI(isa.X(13), isa.X(5), 2)).
				Label("inner").
				I(isa.VMove(w, isa.V(4), isa.V(0))).
				I(isa.SBDimNotEnd(0, 0, "inner")).
				I(isa.SBNotEnd(0, "outer")).
				I(isa.Halt()))
		}},
		{name: "conditional advance", build: func(t *testing.T) *program.Program {
			d := descriptor.New(0x1000, w, descriptor.Load).
				Dim(0, int64(n), 1).Dim(0, int64(rows), 0).MustBuild()
			return mustBuild(t, program.NewBuilder("condadv").
				ConfigStream(0, d).
				Label("outer").
				I(isa.Beq(isa.X(3), isa.X(4), "skip")).
				Label("inner").
				I(isa.VMove(w, isa.V(4), isa.V(0))).
				I(isa.SBDimNotEnd(0, 0, "inner")).
				Label("skip").
				I(isa.SBNotEnd(0, "outer")).
				I(isa.Halt()))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *program.Program
			if tc.build != nil {
				p = tc.build(t)
			} else {
				p = streamLoop(t, rows, n, tc.mutate)
			}
			r := Analyze(p, Options{})
			for pc := 0; pc < p.Len(); pc++ {
				if p.At(pc).Op != isa.OpSBNotEnd {
					continue
				}
				h := p.At(pc).Target
				if trip, ok := r.LoopTrip(h); ok {
					t.Errorf("unexpected trip bound %d at header %d", trip, h)
				}
			}
		})
	}
}

// TestIrreducible: a jump into the middle of a loop disables exec bounds
// but the analysis still terminates with sound (Top-ish) states.
func TestIrreducible(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("irr").
		I(isa.J("mid")).
		Label("head").
		I(isa.AddI(isa.X(3), isa.X(3), 2)).
		Label("mid").
		I(isa.AddI(isa.X(1), isa.X(1), 1)).
		I(isa.Blt(isa.X(1), isa.X(2), "head")).
		I(isa.Halt()))
	r := Analyze(p, Options{Entry: map[int]uint64{2: 10}})
	if _, ok := r.MaxExec(2); ok {
		t.Error("irreducible CFG must not claim exec bounds")
	}
	// x1 goes 1,2,...,10: any sound state contains those.
	got := r.At(3, 1)
	for v := uint64(1); v <= 10; v++ {
		if !got.Contains(v) {
			t.Fatalf("unsound x1 interval %v misses %d", got, v)
		}
	}
}

// TestDataDependentLoop: a load-carried bound cannot be counted, but the
// analysis terminates and the exit state is sound.
func TestDataDependentLoop(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("datadep").
		I(isa.Li(isa.X(1), 0)).
		Label("loop").
		I(isa.AddI(isa.X(1), isa.X(1), 1)).
		I(isa.Load(arch.W8, isa.X(4), isa.X(9), 0)).
		I(isa.Blt(isa.X(1), isa.X(4), "loop")).
		I(isa.Halt()))
	r := Analyze(p, Options{})
	if trip, ok := r.LoopTrip(1); ok {
		t.Errorf("data-dependent trip claimed: %d", trip)
	}
	got := r.At(4, 1)
	for _, v := range []uint64{1, 5, 1 << 40} {
		if !got.Contains(v) {
			t.Fatalf("exit interval %v misses %d", got, v)
		}
	}
}

// TestWhileltFactKilled: redefining the tracked register invalidates the
// whilelt fact, so no refinement (and no unsound trip) may survive.
func TestWhileltFactKilled(t *testing.T) {
	p := mustBuild(t, program.NewBuilder("factkill").
		I(isa.Li(isa.X(1), 0)).
		Label("loop").
		I(isa.Whilelt(w, isa.P(1), isa.X(1), isa.X(2))).
		I(isa.Li(isa.X(1), 0)). // resets the induction register
		I(isa.BFirst(isa.P(1), "loop")).
		I(isa.Halt()))
	r := Analyze(p, Options{Entry: map[int]uint64{2: 5}})
	if trip, ok := r.LoopTrip(1); ok {
		t.Errorf("trip claimed for a non-terminating loop: %d", trip)
	}
	_ = r
}

func TestNilResult(t *testing.T) {
	var r *Result
	if !r.At(0, 1).IsTop() {
		t.Error("nil At must be Top")
	}
	if r.Reachable(0) {
		t.Error("nil Reachable must be false")
	}
	if _, ok := r.MaxExec(0); ok {
		t.Error("nil MaxExec must be unknown")
	}
}
