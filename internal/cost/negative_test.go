package cost_test

// The negative corpus: programs whose exact costs are statically
// unavailable (data-dependent descriptor sizes, value-dependent control
// flow, value-dependent vector length). The analyzer must degrade to an
// explicit interval plus a diagnostic — never a wrong point estimate — and
// the interval must contain the ground truth measured on the functional
// tier.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/descriptor"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

const negVecBytes = 64

// analyzeAndRun analyzes p and runs it on the functional tier with the same
// memory image and integer arguments, returning the estimate and the true
// committed-instruction count.
func analyzeAndRun(t *testing.T, p *program.Program, h *mem.Hierarchy, intArgs map[int]uint64) (*cost.Estimate, uint64) {
	t.Helper()
	params := cost.DefaultParams(negVecBytes)
	params.IntArgs = intArgs
	est, err := cost.Analyze(p, params)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m := funcsim.New(funcsim.Config{VecBytes: negVecBytes}, p, h.Mem)
	for r, v := range intArgs {
		m.SetIntReg(r, v)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("functional run: %v", err)
	}
	return est, m.Committed()
}

// requireSoundInterval asserts q is an explicit interval containing truth.
func requireSoundInterval(t *testing.T, what string, q cost.Quantity, truth uint64) {
	t.Helper()
	if q.IsExact() {
		t.Fatalf("%s: got point estimate %s for a data-dependent quantity", what, q)
	}
	if truth < q.Lo || truth > q.Hi {
		t.Fatalf("%s: interval %s does not contain the measured value %d", what, q, truth)
	}
}

func streamCostFor(t *testing.T, est *cost.Estimate, u int) *cost.StreamCost {
	t.Helper()
	for i := range est.Streams {
		if est.Streams[i].U == u {
			return &est.Streams[i]
		}
	}
	t.Fatalf("no stream cost record for u%d", u)
	return nil
}

// TestNegativeIndirectSize: an indirect modifier retargeting a dimension
// size makes the element count depend on origin data. Everything the count
// taints — stream work, committed instructions — must become intervals.
func TestNegativeIndirectSize(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	const n = 6
	sizesB := h.Mem.Alloc(8*n, arch.LineSize)
	for i := 0; i < n; i++ {
		h.Mem.Write(sizesB+uint64(8*i), arch.W8, 1+uint64(i%4))
	}
	aB := h.Mem.Alloc(4*64, arch.LineSize)

	b := program.NewBuilder("neg-indirect-size")
	b.ConfigStream(2, descriptor.New(sizesB, arch.W8, descriptor.Load).
		Linear(n, 1).MustBuild())
	b.ConfigStream(0, descriptor.New(aB, arch.W4, descriptor.Load).
		Dim(0, 1, 1).
		IndirectOuter(descriptor.TargetSize, descriptor.SetValue, 2).MustBuild())
	b.Label("loop")
	b.I(isa.VMove(arch.W4, isa.V(5), isa.V(0)))
	b.I(isa.SBNotEnd(0, "loop"))
	b.I(isa.Halt())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	est, truth := analyzeAndRun(t, p, h, nil)
	if est.Exact {
		t.Fatal("estimate claims exactness for a data-dependent program")
	}
	if len(est.Diags) == 0 {
		t.Fatal("degraded estimate carries no diagnostic")
	}
	requireSoundInterval(t, "committed", est.Committed, truth)
	sc := streamCostFor(t, est, 0)
	if sc.Elems.IsExact() {
		t.Fatalf("u0 element count is a point estimate (%s) despite a size-target indirection", sc.Elems)
	}
	if sc.Note == "" {
		t.Fatal("degraded stream record carries no note")
	}
}

// TestNegativeDataDependentBranch: a loop bound loaded from memory is
// invisible to the static analyzer; the committed count must degrade to an
// interval whose low end is the exactly resolved prefix.
func TestNegativeDataDependentBranch(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	base := h.Mem.Alloc(arch.LineSize, arch.LineSize)
	h.Mem.Write(base, arch.W8, 5)

	b := program.NewBuilder("neg-branch")
	b.I(isa.Li(isa.X(6), 0))
	b.I(isa.Load(arch.W8, isa.X(5), isa.X(1), 0))
	b.Label("loop")
	b.I(isa.AddI(isa.X(6), isa.X(6), 1))
	b.I(isa.Blt(isa.X(6), isa.X(5), "loop"))
	b.I(isa.Halt())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	args := map[int]uint64{1: base}
	est, truth := analyzeAndRun(t, p, h, args)
	if est.Exact {
		t.Fatal("estimate claims exactness despite a data-dependent branch")
	}
	if len(est.Diags) == 0 {
		t.Fatal("degraded estimate carries no diagnostic")
	}
	requireSoundInterval(t, "committed", est.Committed, truth)
	// The exactly resolved prefix (li, load) must survive as the low end.
	if est.Committed.Lo < 2 {
		t.Fatalf("committed low end %d loses the resolved prefix", est.Committed.Lo)
	}
}

// TestNegativeGatherCountsExact: an offset-target indirection leaves the
// element count exact (the chunk structure is value-independent) but the
// addresses data-dependent: counts stay points and match the functional
// tier, line quantities become intervals with a note.
func TestNegativeGatherCountsExact(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	const n = 16
	idxB := h.Mem.Alloc(8*n, arch.LineSize)
	for i := 0; i < n; i++ {
		h.Mem.Write(idxB+uint64(8*i), arch.W8, uint64((i*7)%n)*8)
	}
	aB := h.Mem.Alloc(8*n, arch.LineSize)

	b := program.NewBuilder("neg-gather")
	b.ConfigStream(2, descriptor.New(idxB, arch.W8, descriptor.Load).
		Linear(n, 1).MustBuild())
	b.ConfigStream(0, descriptor.New(aB, arch.W8, descriptor.Load).
		Dim(0, 1, 0).
		IndirectOuter(descriptor.TargetOffset, descriptor.SetAdd, 2).MustBuild())
	b.Label("loop")
	b.I(isa.VMove(arch.W8, isa.V(5), isa.V(0)))
	b.I(isa.SBNotEnd(0, "loop"))
	b.I(isa.Halt())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	est, truth := analyzeAndRun(t, p, h, nil)
	if !est.Committed.IsExact() || est.Committed.Value() != truth {
		t.Fatalf("committed %s, functional tier measured %d", est.Committed, truth)
	}
	sc := streamCostFor(t, est, 0)
	if !sc.Elems.IsExact() || sc.Elems.Value() != n {
		t.Fatalf("u0 elems %s, want exactly %d", sc.Elems, n)
	}
	if sc.LineRequests.IsExact() {
		t.Fatalf("u0 line requests are a point estimate (%s) despite data-dependent addresses", sc.LineRequests)
	}
	if sc.Note == "" {
		t.Fatal("address-degraded stream record carries no note")
	}
	if est.Exact {
		t.Fatal("estimate claims full exactness despite data-dependent addresses")
	}
}

// TestNegativeSetVLFromLoad: a vector length taken from memory serializes
// everything after it behind an unknown lane count; the analyzer must bail
// with a diagnostic rather than assume the physical width.
func TestNegativeSetVLFromLoad(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	base := h.Mem.Alloc(arch.LineSize, arch.LineSize)
	h.Mem.Write(base, arch.W8, 3)

	b := program.NewBuilder("neg-setvl")
	b.I(isa.Load(arch.W8, isa.X(5), isa.X(1), 0))
	b.I(isa.SetVL(arch.W4, isa.X(6), isa.X(5)))
	b.I(isa.Halt())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	args := map[int]uint64{1: base}
	est, truth := analyzeAndRun(t, p, h, args)
	if est.Exact {
		t.Fatal("estimate claims exactness despite a value-dependent vector length")
	}
	if len(est.Diags) == 0 {
		t.Fatal("degraded estimate carries no diagnostic")
	}
	requireSoundInterval(t, "committed", est.Committed, truth)
}

// TestNegativeBranchToImplicitHalt: a data-dependent branch whose target is
// the end of the program bails the walk; the proved upper bound must count
// the implicit halt a pc past the end executes, and every kind the bound
// covers needs an entry, including kinds the resolved prefix never reached.
func TestNegativeBranchToImplicitHalt(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	base := h.Mem.Alloc(arch.LineSize, arch.LineSize)
	h.Mem.Write(base, arch.W8, 5)

	b := program.NewBuilder("neg-branch-to-end")
	b.I(isa.Load(arch.W8, isa.X(5), isa.X(1), 0))
	b.I(isa.Blt(isa.X(5), isa.X(0), "end"))
	b.I(isa.AddI(isa.X(6), isa.X(6), 1))
	b.Label("end")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	est, truth := analyzeAndRun(t, p, h, map[int]uint64{1: base})
	if truth != 4 {
		t.Fatalf("functional tier committed %d, want 4 (load, blt, addi, implicit halt)", truth)
	}
	requireSoundInterval(t, "committed", est.Committed, truth)
	if est.Committed.Hi == cost.Unbounded {
		t.Fatalf("committed %s: the loop-free program got no proved upper bound", est.Committed)
	}
	for _, kind := range []string{"branch", "int", "nop"} {
		q, ok := est.ByKind[kind]
		if !ok {
			t.Fatalf("no %s entry in the bailed estimate's per-kind counts %v", kind, est.ByKind)
		}
		requireSoundInterval(t, kind, q, 1)
	}
}
