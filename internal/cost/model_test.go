package cost_test

// The cost model's acceptance properties, differential against both
// execution tiers: (1) exact committed/per-kind counts equal the functional
// tier's, over every kernel × variant × size grid; (2) on the cycle tier,
// every static cycle lower bound is ≤ the measured cycle count, and the
// per-stream work quantities equal the engine's committed traffic records.

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
)

func analyzeKernel(t *testing.T, k *kernels.Kernel, v kernels.Variant, size int) *cost.Estimate {
	t.Helper()
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	inst := k.Build(h, v, size)
	if inst.Err != nil {
		t.Fatalf("%s/%s n=%d: build: %v", k.ID, v, size, inst.Err)
	}
	p := cost.DefaultParams(v.VecBytes())
	p.IntArgs = inst.IntArgs
	est, err := cost.Analyze(inst.Prog, p)
	if err != nil {
		t.Fatalf("%s/%s n=%d: analyze: %v", k.ID, v, size, err)
	}
	return est
}

func sizeGrid(k *kernels.Kernel, scales []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, sc := range scales {
		n := bench.SizeFor(k, &bench.Options{Scale: sc})
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// TestModelExactCounts: the analyzer's committed and per-kind counts are
// exact and equal the functional tier's over the full grid.
func TestModelExactCounts(t *testing.T) {
	scales := []int{16, 64}
	if testing.Short() {
		scales = []int{64}
	}
	cells := 0
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			for _, size := range sizeGrid(k, scales) {
				est := analyzeKernel(t, k, v, size)
				o := sim.DefaultOptions(v)
				o.Fidelity = sim.Functional
				res, err := sim.Run(k, v, size, &o)
				if err != nil {
					t.Fatalf("%s/%s n=%d: functional run: %v", k.ID, v, size, err)
				}
				if !est.Committed.IsExact() {
					t.Errorf("%s/%s n=%d: committed count degraded to %s (diags %v)",
						k.ID, v, size, est.Committed, est.Diags)
					continue
				}
				if est.Committed.Value() != res.Committed {
					t.Errorf("%s/%s n=%d: committed: static %d, simulated %d",
						k.ID, v, size, est.Committed.Value(), res.Committed)
				}
				for kind := isa.Kind(0); kind < isa.KindCount; kind++ {
					want := res.Core.CommittedByKind[kind]
					got := est.ByKind[kind.String()]
					if got.Value() != want || !got.IsExact() {
						t.Errorf("%s/%s n=%d: kind %s: static %s, simulated %d",
							k.ID, v, size, kind, got, want)
					}
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("exact-count sweep covered no cells")
	}
}

// TestImplicitHaltExact: a program that runs off its end executes the
// implicit halt, on both tiers and in the model alike.
func TestImplicitHaltExact(t *testing.T) {
	b := program.NewBuilder("no-halt")
	b.I(isa.Li(isa.X(1), 5))
	b.I(isa.AddI(isa.X(1), isa.X(1), 1))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	est, err := cost.Analyze(p, cost.DefaultParams(kernels.UVE.VecBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Exact || est.Committed != cost.Exact(3) ||
		est.ByKind["int"] != cost.Exact(2) || est.ByKind["nop"] != cost.Exact(1) || len(est.ByKind) != 2 {
		t.Fatalf("estimate: exact=%v committed %s by kind %v (diags %v), want exactly 3: int 2, nop 1",
			est.Exact, est.Committed, est.ByKind, est.Diags)
	}
	for _, f := range []sim.Fidelity{sim.Functional, sim.Cycle} {
		o := sim.DefaultOptions(kernels.UVE)
		o.Fidelity = f
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		res, err := sim.RunInstance(context.Background(), h, &kernels.Instance{Prog: p}, false, &o)
		if err != nil {
			t.Fatalf("%v run: %v", f, err)
		}
		if res.Committed != 3 || res.Core.CommittedByKind[isa.KindIntALU] != 2 || res.Core.CommittedByKind[isa.KindNop] != 1 {
			t.Errorf("%v tier committed %d (by kind %v), want 3: int 2, nop 1", f, res.Committed, res.Core.CommittedByKind)
		}
	}
}

// TestModelCycleBounds: on the cycle tier, every static lower bound is ≤
// the measured cycle count, and the per-stream work equals the engine's
// committed traffic.
func TestModelCycleBounds(t *testing.T) {
	scales := []int{64}
	if !testing.Short() {
		scales = []int{16, 64}
	}
	cells, exactUs := 0, 0
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			for _, size := range sizeGrid(k, scales) {
				est := analyzeKernel(t, k, v, size)
				o := sim.DefaultOptions(v)
				res, err := sim.Run(k, v, size, &o)
				if err != nil {
					t.Fatalf("%s/%s n=%d: cycle run: %v", k.ID, v, size, err)
				}
				checkBounds(t, k.ID, v, size, est, res)
				if v == kernels.UVE {
					exactUs += checkTraffic(t, k.ID, v, size, est, res)
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("bound sweep covered no cells")
	}
	if exactUs == 0 {
		t.Fatal("traffic check compared no exact stream records — the equality invariant silently disengaged")
	}
}

func checkBounds(t *testing.T, id string, v kernels.Variant, size int, est *cost.Estimate, res *sim.Result) {
	t.Helper()
	b := est.Bounds
	checks := map[string]int64{
		"commit": b.Commit, "issue": b.Issue, "dram": b.DRAM,
		"engine-stream": b.EngineStream, "engine-total": b.EngineTotal,
		"engine-store": b.EngineStore, "engine-mrq": b.EngineMRQ, "best": b.Best,
	}
	for name, p := range b.Ports {
		checks["port-"+name] = p
	}
	for name, bound := range checks {
		if bound > res.Cycles {
			t.Errorf("%s/%s n=%d: %s bound %d exceeds measured cycles %d",
				id, v, size, name, bound, res.Cycles)
		}
	}
}

// trafficSum aggregates per-stream-register work totals.
type trafficSum struct {
	records, elems, bytes, chunks, dims, lineReqs, storeLines uint64
	exact, complete                                           bool
}

func checkTraffic(t *testing.T, id string, v kernels.Variant, size int, est *cost.Estimate, res *sim.Result) (exactUs int) {
	t.Helper()
	want := map[int]*trafficSum{}
	for _, tr := range res.Traffic {
		s := want[tr.U]
		if s == nil {
			s = &trafficSum{complete: true}
			want[tr.U] = s
		}
		s.records++
		s.elems += tr.Elems
		s.bytes += tr.Bytes
		s.chunks += tr.Chunks
		s.dims += tr.DimBoundaries
		s.lineReqs += tr.LineRequests
		s.storeLines += tr.StoreLines
		s.complete = s.complete && tr.Complete
	}
	got := map[int]*trafficSum{}
	for _, sc := range est.Streams {
		s := got[sc.U]
		if s == nil {
			s = &trafficSum{exact: true, complete: true}
			got[sc.U] = s
		}
		s.records++
		s.exact = s.exact && sc.Elems.IsExact() && sc.Chunks.IsExact() && sc.DimBoundaries.IsExact() &&
			sc.LineRequests.IsExact() && sc.StoreLines.IsExact()
		s.complete = s.complete && sc.Complete
		s.elems += sc.Elems.Value()
		s.bytes += sc.Bytes.Value()
		s.chunks += sc.Chunks.Value()
		s.dims += sc.DimBoundaries.Value()
		s.lineReqs += sc.LineRequests.Value()
		s.storeLines += sc.StoreLines.Value()
	}
	for u, w := range want {
		g := got[u]
		if g == nil {
			t.Errorf("%s/%s n=%d: u%d has engine traffic but no static stream cost", id, v, size, u)
			continue
		}
		if g.records != w.records {
			t.Errorf("%s/%s n=%d: u%d: static %d instances, engine %d", id, v, size, u, g.records, w.records)
			continue
		}
		if !g.exact {
			continue // intervals are checked by the negative corpus, not here
		}
		exactUs++
		if g.elems != w.elems || g.bytes != w.bytes || g.chunks != w.chunks || g.dims != w.dims {
			t.Errorf("%s/%s n=%d: u%d: static elems/bytes/chunks/dims %d/%d/%d/%d != engine %d/%d/%d/%d",
				id, v, size, u, g.elems, g.bytes, g.chunks, g.dims, w.elems, w.bytes, w.chunks, w.dims)
		}
		if g.complete && w.complete && (g.lineReqs != w.lineReqs || g.storeLines != w.storeLines) {
			t.Errorf("%s/%s n=%d: u%d: static lineReqs/storeLines %d/%d != engine %d/%d",
				id, v, size, u, g.lineReqs, g.storeLines, w.lineReqs, w.storeLines)
		}
	}
	for u := range got {
		if want[u] == nil {
			t.Errorf("%s/%s n=%d: u%d has static stream cost but no engine traffic", id, v, size, u)
		}
	}
	return exactUs
}
