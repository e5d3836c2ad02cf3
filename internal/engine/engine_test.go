package engine

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
)

type testRig struct {
	t    *testing.T
	e    *Engine
	h    *mem.Hierarchy
	now  int64
	toks map[int][]*ConfigToken
}

func newRig(t *testing.T, cfg Config) *testRig {
	hc := mem.DefaultHierarchyConfig()
	hc.Prefetchers = false
	h := mem.NewHierarchy(hc)
	return &testRig{t: t, e: New(cfg, h), h: h, toks: map[int][]*ConfigToken{}}
}

func (r *testRig) tick() {
	r.now++
	r.h.Tick(r.now)
	r.e.Tick(r.now)
}

// configure pushes the config µOps for stream u and runs until activated,
// then commits the parts.
func (r *testRig) configure(u int, d *descriptor.Descriptor) {
	prevSlot, hadPrev := r.e.StreamFor(u)
	for _, in := range isa.SCfgParts(u, d) {
		tok, ok := r.e.RenameConfigPart(in.Cfg)
		if !ok {
			r.t.Fatal("SCROB full during configure")
		}
		r.toks[u] = append(r.toks[u], tok)
	}
	activated := func() bool {
		slot, ok := r.e.StreamFor(u)
		return ok && (!hadPrev || slot != prevSlot) && !r.e.Configuring(slot)
	}
	for i := 0; i < 100 && !activated(); i++ {
		r.tick()
	}
	if !activated() {
		r.t.Fatalf("stream u%d did not activate", u)
	}
	for _, tok := range r.toks[u] {
		r.e.CommitConfigPart(tok)
	}
	r.toks[u] = nil
}

// consume waits until the next chunk is ready and returns it.
func (r *testRig) consume(u int) ChunkView {
	slot, ok := r.e.StreamFor(u)
	if !ok {
		return syntheticEnd
	}
	for i := 0; i < 20000; i++ {
		if v, ok := r.e.ConsumeChunk(slot); ok {
			return v
		}
		r.tick()
	}
	r.t.Fatalf("chunk of u%d never became ready", u)
	return ChunkView{}
}

func (r *testRig) fillFloats(base uint64, w arch.ElemWidth, vals []float64) {
	for i, v := range vals {
		r.h.Mem.WriteFloat(base+uint64(i)*uint64(w), w, v)
	}
}

func (r *testRig) fillInts(base uint64, w arch.ElemWidth, vals []uint64) {
	for i, v := range vals {
		r.h.Mem.Write(base+uint64(i)*uint64(w), w, v)
	}
}

func TestLoadStreamDeliversDataInChunks(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*40, 64)
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	r.fillFloats(base, arch.W4, vals)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(40, 1).MustBuild()
	r.configure(0, d)

	// 40 word elements at 16 lanes → chunks of 16, 16, 8.
	wantN := []int{16, 16, 8}
	got := 0
	for i, n := range wantN {
		v := r.consume(0)
		if !v.Consumed {
			t.Fatalf("chunk %d: synthetic, want real", i)
		}
		if v.N != n {
			t.Fatalf("chunk %d: %d lanes, want %d", i, v.N, n)
		}
		for l := 0; l < v.N; l++ {
			if f := v.Data.F(l); f != vals[got] {
				t.Fatalf("chunk %d lane %d = %v, want %v", i, l, f, vals[got])
			}
			got++
		}
		slot, _ := r.e.StreamFor(0)
		r.e.CommitConsume(slot, v.Seq)
		if i == len(wantN)-1 && !v.Last {
			t.Fatal("final chunk not marked Last")
		}
	}
	// Reading past the end yields a synthetic chunk.
	slot, ok := r.e.StreamFor(0)
	if ok {
		v, okc := r.e.ConsumeChunk(slot)
		if !okc || v.Consumed || !v.Last {
			t.Fatalf("past-end read: %+v ok=%v", v, okc)
		}
	}
}

func TestChunksRespectDim0Boundaries(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(8*64, 64)
	// 4 rows of 6 doubles: 8 lanes max, rows of 6 → each chunk is one row.
	d := descriptor.New(base, arch.W8, descriptor.Load).
		Dim(0, 6, 1).Dim(0, 4, 6).MustBuild()
	r.configure(1, d)
	slot, _ := r.e.StreamFor(1)
	for row := 0; row < 4; row++ {
		v := r.consume(1)
		if v.N != 6 {
			t.Fatalf("row %d: %d lanes, want 6", row, v.N)
		}
		if !v.EndsDim0() {
			t.Fatalf("row %d: missing dim-0 end flag", row)
		}
		r.e.CommitConsume(slot, v.Seq)
	}
}

func TestSpeculativeConsumeAndSquashReusesData(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*64, 64)
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	r.fillFloats(base, arch.W4, vals)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(64, 1).MustBuild()
	r.configure(2, d)
	slot, _ := r.e.StreamFor(2)

	v1 := r.consume(2)
	v2 := r.consume(2)
	reqsBefore := r.e.Stats.LineRequests
	// Mis-speculation: the second consume is squashed and replayed.
	r.e.Unconsume(slot, v2.PrevEnd, v2.PrevLast)
	v2b := r.consume(2)
	if v2b.Seq != v2.Seq || v2b.Data.F(0) != v2.Data.F(0) {
		t.Fatalf("replayed chunk differs: seq %d vs %d", v2b.Seq, v2.Seq)
	}
	if r.e.Stats.LineRequests != reqsBefore {
		t.Fatalf("squash triggered %d new line requests; buffered data must be re-used",
			r.e.Stats.LineRequests-reqsBefore)
	}
	r.e.CommitConsume(slot, v1.Seq)
	r.e.CommitConsume(slot, v2b.Seq)
}

func TestFIFODepthBoundsRunAhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FIFODepth = 2
	r := newRig(t, cfg)
	base := r.h.Mem.Alloc(4*1024, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(1024, 1).MustBuild()
	r.configure(3, d)
	for i := 0; i < 2000; i++ {
		r.tick()
	}
	if got := r.e.Stats.ChunksLoaded; got > 2 {
		t.Fatalf("engine generated %d chunks with nothing consumed; FIFO depth 2 must cap run-ahead", got)
	}
	if r.e.Stats.FIFOFullCycles == 0 {
		t.Fatal("expected FIFO-full stall cycles")
	}
}

func TestStoreStreamWritesAtCommit(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(8*16, 64)
	d := descriptor.New(base, arch.W8, descriptor.Store).Linear(16, 1).MustBuild()
	r.configure(4, d)
	slot, _ := r.e.StreamFor(4)

	var views []ChunkView
	for len(views) < 2 {
		if v, ok := r.e.ReserveStore(slot); ok {
			views = append(views, v)
		} else {
			r.tick()
		}
	}
	for i, v := range views {
		lanes := make([]uint64, v.N)
		for l := range lanes {
			lanes[l] = isa.FloatBits(arch.W8, float64(i*8+l))
		}
		data := isa.VecFrom(arch.W8, lanes)
		r.e.WriteStoreData(slot, v.Seq, &data)
	}
	// Before commit, memory is untouched.
	if got := r.h.Mem.ReadFloat(base, arch.W8); got != 0 {
		t.Fatalf("store leaked before commit: %v", got)
	}
	r.e.CommitStore(slot, views[0].Seq, r.now)
	r.e.CommitStore(slot, views[1].Seq, r.now)
	for i := 0; i < 16; i++ {
		if got := r.h.Mem.ReadFloat(base+uint64(i*8), arch.W8); got != float64(i) {
			t.Fatalf("elem %d = %v, want %d", i, got, i)
		}
	}
	// Drain the store lines.
	for i := 0; i < 1000 && r.e.StoresPending(); i++ {
		r.tick()
	}
	if r.e.StoresPending() {
		t.Fatal("store lines never drained")
	}
	if r.e.Stats.StoreLines == 0 {
		t.Fatal("no store lines counted")
	}
}

func TestStoreSquashRewindsReservation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*64, 64)
	d := descriptor.New(base, arch.W4, descriptor.Store).Linear(64, 1).MustBuild()
	r.configure(5, d)
	slot, _ := r.e.StreamFor(5)
	var v ChunkView
	for {
		var ok bool
		if v, ok = r.e.ReserveStore(slot); ok {
			break
		}
		r.tick()
	}
	r.e.Unconsume(slot, v.PrevEnd, v.PrevLast)
	v2, ok := r.e.ReserveStore(slot)
	if !ok || v2.Seq != v.Seq {
		t.Fatalf("re-reservation got seq %d, want %d", v2.Seq, v.Seq)
	}
}

func TestIndirectGatherStream(t *testing.T) {
	r := newRig(t, DefaultConfig())
	aBase := r.h.Mem.Alloc(4*100, 64)
	idxBase := r.h.Mem.Alloc(8*12, 64)
	for i := 0; i < 100; i++ {
		r.h.Mem.WriteFloat(aBase+uint64(i*4), arch.W4, float64(i)*10)
	}
	idx := []uint64{5, 17, 3, 99, 0, 42, 7, 7, 23, 56, 11, 2}
	r.fillInts(idxBase, arch.W8, idx)

	// u6: index stream (engine-consumed); u7: gather A[idx[i]].
	di := descriptor.New(idxBase, arch.W8, descriptor.Load).Linear(int64(len(idx)), 1).MustBuild()
	r.configure(6, di)
	dg := descriptor.New(aBase, arch.W4, descriptor.Load).
		Dim(0, int64(len(idx)), 0).
		Indirect(descriptor.TargetOffset, descriptor.SetValue, 6).
		MustBuild()
	r.configure(7, dg)
	slot, _ := r.e.StreamFor(7)
	v := r.consume(7)
	if v.N != len(idx) {
		t.Fatalf("gather chunk N=%d want %d", v.N, len(idx))
	}
	for i, ix := range idx {
		if got := v.Data.F(i); got != float64(ix)*10 {
			t.Fatalf("gather lane %d = %v, want %v", i, got, float64(ix)*10)
		}
	}
	r.e.CommitConsume(slot, v.Seq)
}

func TestIndirectTimingPacedByOrigin(t *testing.T) {
	// The gather chunk must not become ready before the origin stream's
	// index data has arrived in its FIFO.
	r := newRig(t, DefaultConfig())
	aBase := r.h.Mem.Alloc(4*64, 64)
	idxBase := r.h.Mem.Alloc(8*16, 64)
	idx := make([]uint64, 16)
	r.fillInts(idxBase, arch.W8, idx)
	di := descriptor.New(idxBase, arch.W8, descriptor.Load).Linear(16, 1).MustBuild()
	r.configure(8, di)
	dg := descriptor.New(aBase, arch.W4, descriptor.Load).
		Dim(0, 16, 0).
		Indirect(descriptor.TargetOffset, descriptor.SetValue, 8).
		MustBuild()
	r.configure(9, dg)
	slot, _ := r.e.StreamFor(9)
	// Immediately after configuration nothing can be ready: the origin's
	// lines have not returned from memory.
	if _, ok := r.e.ConsumeChunk(slot); ok {
		t.Fatal("gather chunk ready before origin data arrived")
	}
	v := r.consume(9)
	if v.N != 16 {
		t.Fatalf("gather chunk N=%d", v.N)
	}
}

func TestStreamRenamingAllowsReconfiguration(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base1 := r.h.Mem.Alloc(4*16, 64)
	base2 := r.h.Mem.Alloc(4*16, 64)
	r.fillFloats(base1, arch.W4, []float64{1, 1, 1, 1})
	r.fillFloats(base2, arch.W4, []float64{2, 2, 2, 2})
	d1 := descriptor.New(base1, arch.W4, descriptor.Load).Linear(4, 1).MustBuild()
	d2 := descriptor.New(base2, arch.W4, descriptor.Load).Linear(4, 1).MustBuild()
	r.configure(10, d1)
	slotA, _ := r.e.StreamFor(10)
	// Reconfigure u10 while the first stream still exists (renamed).
	r.configure(10, d2)
	slotB, _ := r.e.StreamFor(10)
	if slotA == slotB {
		t.Fatal("reconfiguration must allocate a new physical stream")
	}
	// The old stream is still consumable through its slot; the new mapping
	// reads the new data.
	v := r.consume(10)
	if v.Data.F(0) != 2 {
		t.Fatalf("new stream reads %v, want 2", v.Data.F(0))
	}
	if vOld, ok := r.e.ConsumeChunk(slotA); ok && vOld.Consumed {
		if vOld.Data.F(0) != 1 {
			t.Fatalf("old stream reads %v, want 1", vOld.Data.F(0))
		}
	}
}

func TestConfigSquashRestoresSAT(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*16, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(4, 1).MustBuild()
	r.configure(11, d)
	slotA, _ := r.e.StreamFor(11)

	// Speculatively reconfigure, then squash the whole config window.
	var toks []*ConfigToken
	for _, in := range isa.SCfgParts(11, d) {
		tok, _ := r.e.RenameConfigPart(in.Cfg)
		toks = append(toks, tok)
	}
	for i := 0; i < 50; i++ {
		r.tick()
	}
	slotB, _ := r.e.StreamFor(11)
	if slotB == slotA {
		t.Fatal("speculative config did not activate")
	}
	for i := len(toks) - 1; i >= 0; i-- {
		r.e.SquashConfigPart(toks[i])
	}
	slotC, ok := r.e.StreamFor(11)
	if !ok || slotC != slotA {
		t.Fatalf("SAT not restored: slot %d ok=%v, want %d", slotC, ok, slotA)
	}
}

func TestAutoReleaseAfterCompletion(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*8, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(8, 1).MustBuild()
	r.configure(12, d)
	slot, _ := r.e.StreamFor(12)
	v := r.consume(12)
	if !v.Last {
		t.Fatal("single-chunk stream must be Last")
	}
	r.e.CommitConsume(slot, v.Seq)
	for i := 0; i < 50; i++ {
		r.tick()
	}
	if _, ok := r.e.StreamFor(12); ok {
		t.Fatal("completed stream not released")
	}
	if end, last := r.e.LastFlags(12); !last || end == 0 {
		t.Fatal("released stream lost its final flags")
	}
	if r.e.ActiveStreams() != 0 {
		t.Fatalf("ActiveStreams=%d", r.e.ActiveStreams())
	}
}

func TestStopReleasesStream(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*1024, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(1024, 1).MustBuild()
	r.configure(13, d)
	r.e.Stop(13)
	if _, ok := r.e.StreamFor(13); ok {
		t.Fatal("stopped stream still mapped")
	}
	// Engine keeps ticking without touching the released entry.
	for i := 0; i < 100; i++ {
		r.tick()
	}
}

func TestSuspendResume(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*256, 64)
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i)
	}
	r.fillFloats(base, arch.W4, vals)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(256, 1).MustBuild()
	r.configure(14, d)
	slot, _ := r.e.StreamFor(14)
	v := r.consume(14)
	r.e.CommitConsume(slot, v.Seq)

	susUndo := r.e.RenameSuspend(14)
	_ = susUndo
	if _, ok := r.e.StreamFor(14); ok {
		t.Fatal("suspended stream must unmap the register")
	}
	r.e.RenameResume(14)
	slot2, ok := r.e.StreamFor(14)
	if !ok || slot2 != slot {
		t.Fatal("resume must remap the same stream")
	}
	v2 := r.consume(14)
	if v2.Data.F(0) != 16 {
		t.Fatalf("resumed stream reads %v, want 16", v2.Data.F(0))
	}
}

func TestPageFaultFlagsChunk(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*16, arch.PageSize)
	// Pattern crosses into an unmapped page.
	r.h.Mem.UnmapPage(base + arch.PageSize)
	n := int64(arch.PageSize/4 + 8) // 8 elements past the page end
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(n, 1).MustBuild()
	r.configure(16, d)
	slot, _ := r.e.StreamFor(16)
	sawFault := false
	for i := int64(0); i < n; i += 16 {
		v := r.consume(16)
		if v.Fault {
			sawFault = true
			if v.FaultAddr < base+arch.PageSize {
				t.Fatalf("fault address %#x inside mapped page", v.FaultAddr)
			}
			break
		}
		r.e.CommitConsume(slot, v.Seq)
	}
	if !sawFault {
		t.Fatal("no chunk flagged the page fault")
	}
	if r.e.Stats.PageFaults == 0 {
		t.Fatal("fault not counted")
	}
	// OS maps the page; recovery reloads from the commit point and the
	// stream completes cleanly.
	r.h.Mem.MapPage(base + arch.PageSize)
	r.h.TLB.Flush()
	r.e.ReloadFromCommit(slot)
	for {
		v := r.consume(16)
		if v.Fault {
			t.Fatal("fault persisted after reload")
		}
		if !v.Consumed {
			break
		}
		r.e.CommitConsume(slot, v.Seq)
		if v.Last {
			break
		}
	}
}

func TestStreamCrossesPageBoundary(t *testing.T) {
	// Paper A2: streaming continues across mapped page boundaries.
	r := newRig(t, DefaultConfig())
	n := int64(2*arch.PageSize/4 + 32)
	base := r.h.Mem.Alloc(int(n*4), arch.PageSize)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(n, 1).MustBuild()
	r.configure(17, d)
	slot, _ := r.e.StreamFor(17)
	var total int64
	for {
		v := r.consume(17)
		if !v.Consumed {
			t.Fatal("stream ended early")
		}
		total += int64(v.N)
		r.e.CommitConsume(slot, v.Seq)
		if v.Last {
			break
		}
	}
	if total != n {
		t.Fatalf("streamed %d elements, want %d", total, n)
	}
	if r.e.Stats.PageFaults != 0 {
		t.Fatalf("unexpected faults: %d", r.e.Stats.PageFaults)
	}
}

func TestStoreMayOverlap(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*100, 64)
	d := descriptor.New(base, arch.W4, descriptor.Store).Linear(100, 1).MustBuild()
	r.configure(18, d)
	slot, _ := r.e.StreamFor(18)
	// Nothing reserved yet: no uncommitted write exists, loads may pass.
	if r.e.StoreMayOverlap(base+40, 4, 1<<60) {
		t.Fatal("overlap reported with no reserved store chunk")
	}
	var v ChunkView
	for {
		var ok bool
		if v, ok = r.e.ReserveStore(slot); ok {
			break
		}
		r.tick()
	}
	if !r.e.StoreMayOverlap(base+40, 4, 1<<60) {
		t.Fatal("overlap with reserved store chunk not detected")
	}
	// A load renamed before the reservation (older stamp) is not ordered
	// after it.
	if r.e.StoreMayOverlap(base+40, 4, 0) {
		t.Fatal("overlap reported against a younger reservation")
	}
	if r.e.StoreMayOverlap(base+4*100+4096, 4, 1<<60) {
		t.Fatal("false overlap far beyond the stream footprint")
	}
	// Committing the chunk clears the hazard window.
	data := isa.NewVec(arch.W4, v.N)
	r.e.WriteStoreData(slot, v.Seq, &data)
	r.e.CommitStore(slot, v.Seq, r.now)
	if r.e.StoreMayOverlap(base+40, 4, 1<<60) {
		t.Fatal("overlap persists after commit")
	}
}

func TestCacheLevelBypass(t *testing.T) {
	run := func(level arch.CacheLevel) (l1miss, l2miss uint64) {
		cfg := DefaultConfig()
		cfg.ForceLevel = &level
		r := newRig(t, cfg)
		base := r.h.Mem.Alloc(4*1024, 64)
		d := descriptor.New(base, arch.W4, descriptor.Load).Linear(1024, 1).MustBuild()
		r.configure(19, d)
		slot, _ := r.e.StreamFor(19)
		for {
			v := r.consume(19)
			if !v.Consumed {
				break
			}
			r.e.CommitConsume(slot, v.Seq)
			if v.Last {
				break
			}
		}
		return r.h.L1D.Stats.Misses, r.h.L2.Stats.Misses
	}
	l1missL1, _ := run(arch.LevelL1)
	l1missL2, l2missL2 := run(arch.LevelL2)
	_, l2missMem := run(arch.LevelMem)
	if l1missL1 == 0 {
		t.Fatal("L1 streaming produced no L1 activity")
	}
	if l1missL2 != 0 {
		t.Fatalf("L2 streaming allocated in L1 (%d misses)", l1missL2)
	}
	if l2missL2 == 0 {
		t.Fatal("L2 streaming produced no L2 activity")
	}
	if l2missMem != 0 {
		t.Fatalf("DRAM streaming allocated in L2 (%d misses)", l2missMem)
	}
}

func TestLineCoalescing(t *testing.T) {
	r := newRig(t, DefaultConfig())
	base := r.h.Mem.Alloc(4*256, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(256, 1).MustBuild()
	r.configure(20, d)
	slot, _ := r.e.StreamFor(20)
	for {
		v := r.consume(20)
		if !v.Consumed {
			break
		}
		r.e.CommitConsume(slot, v.Seq)
		if v.Last {
			break
		}
	}
	// 256 contiguous words = 1 KB = 16 lines; coalescing must keep requests
	// at exactly one per line.
	if r.e.Stats.LineRequests != 16 {
		t.Fatalf("line requests %d, want 16", r.e.Stats.LineRequests)
	}
}

func TestStorageFootprint(t *testing.T) {
	table, mrq, fifos := StorageFootprint(DefaultConfig())
	// Paper §VI-C: Stream Table + SCROB ≈ 14 KB, MRQ 160 B, FIFOs ≈ 17 KB.
	if table < 13<<10 || table > 15<<10 {
		t.Errorf("table+SCROB = %d B, want ≈14 KB", table)
	}
	if mrq != 160 {
		t.Errorf("MRQ = %d B, want 160", mrq)
	}
	if fifos < 16<<10 || fifos > 18<<10 {
		t.Errorf("FIFOs = %d B, want ≈17 KB", fifos)
	}
	// Reduced configuration (§VI-C mitigation): 8 streams → much smaller.
	small := DefaultConfig()
	small.LogStreams = 8
	st, _, sf := StorageFootprint(small)
	if st+sf >= (table+fifos)/3 {
		t.Errorf("reduced config %d B not a large reduction from %d B", st+sf, table+fifos)
	}
}

func TestConfigWaitsForPendingStores(t *testing.T) {
	r := newRig(t, DefaultConfig())
	pending := true
	r.e.SyncStoresPending = func() bool { return pending }
	base := r.h.Mem.Alloc(4*16, 64)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(16, 1).MustBuild()
	for _, in := range isa.SCfgParts(21, d) {
		r.e.RenameConfigPart(in.Cfg)
	}
	for i := 0; i < 50; i++ {
		r.tick()
	}
	slot, ok := r.e.StreamFor(21)
	if !ok {
		t.Fatal("SAT mapping must exist from rename onward")
	}
	if !r.e.Configuring(slot) {
		t.Fatal("input stream finished configuring while older stores pending")
	}
	if r.e.Stats.ConfigSyncStalls == 0 {
		t.Fatal("sync stalls not counted")
	}
	pending = false
	for i := 0; i < 50; i++ {
		r.tick()
	}
	if r.e.Configuring(slot) {
		t.Fatal("input stream never configured after stores drained")
	}
}
