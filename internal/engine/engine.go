// Package engine implements the UVE Streaming Engine (paper §IV-B): the
// Stream Configuration Reorder Buffer (SCROB), the Stream Table with stream
// renaming, the Stream Scheduler with its lowest-occupancy policy, the
// Stream Processing Modules (address generation with cache-line coalescing
// and a one-cycle dimension-switch penalty), per-stream Load/Store FIFOs
// with speculative and committed pointers (so miss-speculatively consumed
// data is re-used, never re-loaded — paper A3), the Memory Request Queue and
// arbiter with TLB translation, and store draining at commit.
package engine

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config sizes the Streaming Engine (paper Table I and §VI-C).
type Config struct {
	LogStreams  int // architectural stream registers (32)
	PhysStreams int // physical stream-table entries (renaming headroom)
	FIFODepth   int // Load/Store FIFO entries (vector chunks) per stream
	NumModules  int // Stream Processing Modules
	MRQSize     int // Memory Request Queue entries
	SCROBSize   int // stream configuration reorder buffer entries
	VecBytes    int // vector register width in bytes
	// LoadPorts is how many stream line requests the arbiter issues per
	// cycle. Stream requests merge with the core's (idle, in streamed
	// loops) load ports before the cache (paper §IV-A "Cache Access"), so
	// this defaults to the number of Stream Processing Modules.
	LoadPorts int
	// ForceLevel, when non-nil, overrides every stream's configured cache
	// level (the Fig 11 sensitivity sweep).
	ForceLevel *arch.CacheLevel
}

// DefaultConfig matches Table I.
func DefaultConfig() Config {
	return Config{
		LogStreams:  32,
		PhysStreams: 48,
		FIFODepth:   8,
		NumModules:  2,
		MRQSize:     16,
		SCROBSize:   16,
		VecBytes:    arch.MaxVecBytes,
		LoadPorts:   2,
	}
}

// Stats aggregates engine activity.
type Stats struct {
	ConfigsCompleted  uint64
	ChunksLoaded      uint64
	ChunksStored      uint64
	ElementsLoaded    uint64
	ElementsStored    uint64
	LineRequests      uint64
	CoalescedReuses   uint64
	StoreLines        uint64
	FIFOFullCycles    uint64
	OriginStallCycles uint64
	MRQFullCycles     uint64
	DimSwitchStalls   uint64
	PageFaults        uint64
	StreamsReleased   uint64
	ConfigSyncStalls  uint64
	// Regenerations counts streams whose End part was squashed after
	// generation began: the stream regenerates from scratch, so gen-side
	// tallies (ChunksLoaded, ElementsLoaded, LineRequests, CoalescedReuses)
	// include the discarded work. Commit-side StreamTraffic does not.
	Regenerations uint64
}

// StreamTraffic is the committed, replay-safe per-stream work record the
// static cost model validates against. One record per stream configuration
// instance (stream renaming can map the same logical register u to several
// instances); counters cover committed chunks only, so miss-speculation and
// configuration squashes never inflate them.
type StreamTraffic struct {
	U     int
	Kind  descriptor.Kind
	Width arch.ElemWidth
	Level arch.CacheLevel
	// Elems/Bytes are committed elements and their byte volume.
	Elems uint64
	Bytes uint64
	// Chunks is the number of committed vector chunks; DimBoundaries counts
	// committed chunks that end a non-innermost dimension without ending the
	// stream (each costs one dimension-switch generation cycle).
	Chunks        uint64
	DimBoundaries uint64
	// LineRequests counts distinct line fetches the stream's generation
	// issued (maximal runs of consecutive same-line elements; loads only,
	// fault-free). StoreLines counts unique lines per committed store chunk.
	LineRequests uint64
	StoreLines   uint64
	// Complete reports the whole pattern committed (not stopped mid-way or
	// still live at snapshot time).
	Complete bool
}

// ChunkView is what the core receives when a stream register is consumed at
// rename (loads) or reserved (stores).
type ChunkView struct {
	Seq       int64
	Data      isa.VecVal
	N         int
	End       uint16
	Last      bool
	Fault     bool
	FaultAddr uint64
	// Consumed is false for synthetic end-of-stream reads (wrong-path reads
	// past the end): they must not be un-consumed or committed.
	Consumed bool
	// PrevEnd/PrevLast snapshot the stream's rename-time flags before this
	// consume, for ROB-walk restoration.
	PrevEnd  uint16
	PrevLast bool
}

// EndsDim0 reports whether the chunk ends an innermost-dimension sweep.
func (v ChunkView) EndsDim0() bool { return v.End&1 != 0 }

type chunk struct {
	seq        int64
	startElem  int64
	addrs      []uint64
	data       []uint64
	n          int
	end        uint16
	last       bool
	fault      bool
	faultAddr  uint64
	closed     bool // all elements placed (stores: ready to reserve)
	pendLines  int
	written    bool
	stamp      int64   // reservation order stamp (store chunks)
	originNeed []int64 // per-origin cumulative element debt at close
}

func (c *chunk) reset(seq, startElem int64) {
	*c = chunk{seq: seq, startElem: startElem, addrs: c.addrs[:0], data: c.data[:0], originNeed: c.originNeed[:0]}
}

// loadReady reports whether a load chunk's data can be handed to the core.
func (c *chunk) loadReady() bool { return c.closed && c.pendLines == 0 }

// lineFetch is one MRQ line request. Fetches are recycled through the
// engine's free list once their line arrives; each owns the request it
// sends, whose Done is bound to the fetch when it is first allocated.
type lineFetch struct {
	req     mem.Req // Line, MinLevel (the stream's level) and PC tag
	issued  bool
	slot    int
	epoch   uint64
	waiters []laneRef
	// Injected-NACK bookkeeping: a NACKed request backs off until retryAt;
	// nacks counts injections so the plan's retry bound can cap them.
	retryAt int64
	nacks   int
}

type laneRef struct {
	seq  int64
	lane int
	addr uint64
}

type stream struct {
	slot  int
	epoch uint64
	u     int
	desc  *descriptor.Descriptor
	kind  descriptor.Kind
	w     arch.ElemWidth
	lanes int
	level arch.CacheLevel

	it     *descriptor.Iterator
	itPend descriptor.Elem
	itHas  bool
	itDone bool

	fifo           []chunk
	genPos         int64 // chunks whose generation has started
	genStarted     bool  // building chunk open at genPos
	specPos        int64 // chunks consumed/reserved speculatively by the core
	commitPos      int64 // chunks committed (slots freed)
	totalChunks    int64
	totalKnown     bool
	committedElems int64

	lastEnd    uint16 // flags of the most recently consumed chunk
	lastLast   bool
	commitEnd  uint16 // flags at the commit point (exception recovery)
	commitLast bool

	lastLine      uint64
	lastLineState int8 // 0 none, 1 outstanding, 2 done
	lastFetch     *lineFetch
	lastFault     bool
	dimSwitch     bool
	genPauseUntil int64 // injected dim-boundary pause: no generation before this cycle

	// Indirection: functional origin values come from walks of the origin
	// streams' descriptors (origins counts the values each supplied, in
	// originRefs order); timing is paced by origin FIFO delivery.
	origins    *descriptor.OriginReader
	originRefs []*stream // origin stream entries (timing pacing)

	// Origin-side bookkeeping for streams consumed by the engine itself.
	engineConsumed bool
	settledElems   int64

	// Commit-side traffic tallies for the StreamTraffic export.
	lineReqs     uint64 // gen-side but replay-safe: squash regenerates a fresh struct
	storeLineCnt uint64
	dimBounds    uint64

	configuring       bool // SAT-mapped at rename, descriptor not yet final
	suspended         bool
	released          bool
	configDone        bool // End part committed
	coreSawEnd        bool // a consume of the Last chunk has committed
	pendingStoreLines int
	// hull reports that [minAddr, maxAddr] bounds every byte the stream
	// writes: the cheap reject of StoreMayOverlap. Only a modifier-free
	// store stream has one.
	hull             bool
	minAddr, maxAddr uint64
}

func (s *stream) occupancy() int64 { return s.genPos - s.commitPos }

// maxStreamRegs is the architectural stream-register count (u0..u31, the
// Stream Table geometry of Table I). The sanitizer packs one bit per
// logical register into 32-bit masks.
const maxStreamRegs = 32

// ConfigToken identifies one configuration µOp in the SCROB for later
// commit or squash.
type ConfigToken = scrobEntry

type scrobEntry struct {
	part      *isa.StreamCfgPart
	valid     bool
	processed bool
	committed bool
	slot      int // stream-table entry the part belongs to
	// Undo state recorded at rename (Start parts) or processing (others).
	activatedSlot   int // slot allocated by a Start part, -1 otherwise
	prevSAT         int
	restoreBuilding []*isa.StreamCfgPart
}

type flagPair struct {
	end  uint16
	last bool
}

// storeLine references its stream by pointer, not slot+epoch: committed
// store drains survive exception replay (ReloadFromCommit bumps the epoch
// to orphan speculative line fetches, but a committed line must still
// decrement pendingStoreLines or StoresPending wedges the post-halt drain).
type storeLine struct {
	line  uint64
	level arch.CacheLevel
	s     *stream
}

// Engine is the streaming engine instance attached to one core.
type Engine struct {
	cfg  Config
	hier *mem.Hierarchy

	sat       []int // logical stream register → slot, -1 when unmapped
	entries   []*stream
	freeSlots []int
	// live lists the configured, unreleased streams in slot order: the
	// streams the per-cycle walks visit. configure links a stream in;
	// releaseSlot and deconfigure unlink it.
	live []*stream

	scrob    []*scrobEntry
	building map[int][]*isa.StreamCfgPart // slot → parts accumulated in order

	vecBytes     int // effective vector length (ss.setvl), affects new configs
	mrq          []*lineFetch
	fetchFree    []*lineFetch
	storeQ       []storeLine // window into storeBuf (see arch.Enqueue)
	storeBuf     []storeLine
	storeReq     mem.Req    // reused for each drained line (Access keeps no pointer)
	rr           int        // scheduler round-robin cursor
	cand         []*stream  // scheduler scratch: this cycle's candidates
	chunkLines   []uint64   // scratch: a store chunk's distinct lines
	reserveStamp int64      // monotonically counts store reservations
	lastFlags    []flagPair // final flags of released streams, by logical reg

	// SyncStoresPending is installed by the core: it reports whether older
	// scalar stores are still pending, delaying input-stream activation
	// (paper §III-A3 "Streaming memory model").
	SyncStoresPending func() bool

	san *Shadow // nil unless EnableSanitizer was called

	// inj, when non-nil, perturbs the request path deterministically:
	// NACK/backoff on MRQ line requests and forced generation pauses at
	// descriptor dimension boundaries. Timing only — never data.
	inj *fault.Injector

	// rec receives instrumentation events; tracing caches rec.Enabled().
	// now is the engine's event clock: Tick sets it, and the core advances
	// it at the start of each Step so core-called methods (ConsumeChunk,
	// ReserveStore) timestamp correctly before the engine's own Tick runs.
	rec     trace.Recorder
	tracing bool
	now     int64

	// traffic accumulates StreamTraffic records of released streams in
	// release order; Traffic() extends it with live-stream snapshots.
	traffic []StreamTraffic

	// activity counts state-changing steps the engine took on its own clock
	// (SCROB processing, generation, line arrivals, store drains, chunk
	// commits, releases). The event-driven scheduler compares snapshots of it
	// across a cycle to prove the engine quiescent; see NextEventAt.
	activity uint64

	Stats Stats
}

// New builds a streaming engine over the given memory hierarchy.
func New(cfg Config, h *mem.Hierarchy) *Engine {
	if cfg.LogStreams > maxStreamRegs {
		panic(fmt.Sprintf("engine: LogStreams %d exceeds the %d-entry Stream Table geometry", cfg.LogStreams, maxStreamRegs))
	}
	e := &Engine{
		cfg:       cfg,
		hier:      h,
		sat:       make([]int, cfg.LogStreams),
		entries:   make([]*stream, cfg.PhysStreams),
		live:      make([]*stream, 0, cfg.PhysStreams),
		storeBuf:  make([]storeLine, 2*arch.MaxVecBytes), // a chunk commit queues at most MaxVecBytes lines
		building:  make(map[int][]*isa.StreamCfgPart),
		lastFlags: make([]flagPair, cfg.LogStreams),
	}
	for i := range e.sat {
		e.sat[i] = -1
	}
	for i := cfg.PhysStreams - 1; i >= 0; i-- {
		e.freeSlots = append(e.freeSlots, i)
	}
	e.vecBytes = cfg.VecBytes
	e.rec = trace.Nop
	return e
}

// SetRecorder directs instrumentation events at r (nil restores the no-op
// recorder). Call before the first cycle.
func (e *Engine) SetRecorder(r trace.Recorder) {
	if r == nil {
		r = trace.Nop
	}
	e.rec = r
	e.tracing = r.Enabled()
}

// SetNow advances the engine's event clock; the core calls it at the start
// of each Step (when tracing) so events emitted from rename-stage calls
// carry the current cycle rather than the previous Tick's.
func (e *Engine) SetNow(now int64) { e.now = now }

// SetInjector attaches a deterministic fault injector to the engine's
// request path (nil detaches). Call before the first cycle.
func (e *Engine) SetInjector(in *fault.Injector) { e.inj = in }

// SetVL narrows (or restores) the effective vector length used to size the
// chunks of subsequently configured streams (ss.setvl).
func (e *Engine) SetVL(bytes int) {
	if bytes <= 0 || bytes > e.cfg.VecBytes {
		bytes = e.cfg.VecBytes
	}
	e.vecBytes = bytes
}

// StreamFor returns the physical stream slot mapped to logical register u
// and visible to the pipeline (configured and not suspended).
func (e *Engine) StreamFor(u int) (int, bool) {
	if u < 0 || u >= len(e.sat) || e.sat[u] < 0 {
		return 0, false
	}
	slot := e.sat[u]
	if s := e.entries[slot]; s != nil && !s.suspended && !s.released {
		return slot, true
	}
	return 0, false
}

// Configuring reports whether the slot is still awaiting its descriptor.
func (e *Engine) Configuring(slot int) bool {
	s := e.entries[slot]
	return s != nil && s.configuring
}

// IsLoad reports whether the slot holds an input stream.
func (e *Engine) IsLoad(slot int) bool {
	s := e.entries[slot]
	return s != nil && s.kind == descriptor.Load
}

// --- SCROB: speculative stream configuration (paper §IV-A) ---

// RenameConfigPart registers one configuration µOp at rename. It returns a
// token for later commit/squash, or ok=false when the SCROB is full or no
// stream-table entry is free (the rename stage must stall). A Start part
// allocates the physical stream entry and updates the SAT immediately —
// younger instructions already see the register as stream-associated and
// stall on CanConsume until configuration completes, exactly the stream
// renaming the paper describes (§IV-A "Stream Renaming").
func (e *Engine) RenameConfigPart(part *isa.StreamCfgPart) (*ConfigToken, bool) {
	if len(e.scrob) >= e.cfg.SCROBSize {
		return nil, false
	}
	ent := &scrobEntry{part: part, valid: true, activatedSlot: -1, slot: -1}
	if part.Start {
		if len(e.freeSlots) == 0 {
			return nil, false
		}
		slot := e.freeSlots[len(e.freeSlots)-1]
		e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
		var epoch uint64
		if old := e.entries[slot]; old != nil {
			epoch = old.epoch + 1
		}
		e.entries[slot] = &stream{
			slot: slot, epoch: epoch, u: part.Stream,
			kind: part.Kind, w: part.Width, level: part.Level,
			configuring: true,
		}
		ent.activatedSlot = slot
		ent.prevSAT = e.sat[part.Stream]
		e.sat[part.Stream] = slot
	}
	ent.slot = e.sat[part.Stream]
	e.scrob = append(e.scrob, ent)
	return ent, true
}

// SquashConfigPart undoes one configuration µOp during a ROB walk. The core
// squashes youngest-first, so undo states compose.
func (e *Engine) SquashConfigPart(tok *ConfigToken) {
	if tok == nil || !tok.valid {
		return
	}
	tok.valid = false
	if !tok.processed {
		e.dropScrob(tok)
		return
	}
	u := tok.part.Stream
	if tok.part.Start && tok.activatedSlot >= 0 {
		// Undo the rename-side allocation: release the slot and restore the
		// previous mapping.
		delete(e.building, tok.activatedSlot)
		e.releaseSlot(tok.activatedSlot)
		e.sat[u] = tok.prevSAT
		e.dropScrob(tok)
		return
	}
	if tok.part.End {
		// The stream had been fully configured and possibly started
		// generating: put it back into configuring state; the data it
		// fetched is dropped.
		e.deconfigure(tok.slot, tok.restoreBuilding)
	} else {
		parts := e.building[tok.slot]
		if len(parts) > 0 && parts[len(parts)-1] == tok.part {
			e.building[tok.slot] = parts[:len(parts)-1]
		}
	}
	e.dropScrob(tok)
}

// deconfigure reverts a stream to its configuring state after the squash of
// its End part.
func (e *Engine) deconfigure(slot int, building []*isa.StreamCfgPart) {
	s := e.entries[slot]
	if s == nil || s.released {
		return
	}
	e.sanEndSlot(s)
	e.unlink(s)
	e.Stats.Regenerations++
	e.entries[slot] = &stream{
		slot: slot, epoch: s.epoch + 1, u: s.u,
		kind: s.kind, w: s.w, level: s.level,
		configuring: true,
	}
	kept := e.mrq[:0]
	for _, f := range e.mrq {
		if f.slot != slot || f.issued {
			kept = append(kept, f)
		}
	}
	e.mrq = kept
	e.building[slot] = building
}

func (e *Engine) dropScrob(tok *scrobEntry) {
	for i := len(e.scrob) - 1; i >= 0; i-- {
		if e.scrob[i] == tok {
			e.scrob = append(e.scrob[:i], e.scrob[i+1:]...)
			return
		}
	}
}

// ConfigProcessed reports whether the SCROB has retired the part; the core
// holds the configuration µOp's completion (and therefore its commit) until
// then, which is what serializes configuration at one part per cycle.
func (e *Engine) ConfigProcessed(tok *ConfigToken) bool {
	return tok != nil && tok.processed
}

// CommitConfigPart marks one configuration µOp committed.
func (e *Engine) CommitConfigPart(tok *ConfigToken) {
	if tok == nil {
		return
	}
	if !tok.processed {
		panic("engine: committing unprocessed config part")
	}
	tok.committed = true
	if tok.part.End && tok.slot >= 0 {
		if s := e.entries[tok.slot]; s != nil && !s.released {
			s.configDone = true
		}
	}
	for len(e.scrob) > 0 && e.scrob[0].committed {
		e.scrob = e.scrob[1:]
	}
}

// processSCROB retires one configuration part per cycle, in order, and
// finalizes a stream when its End part is processed — speculatively, before
// commit (paper §IV-A "Stream Configuration").
func (e *Engine) processSCROB() {
	for _, ent := range e.scrob {
		if !ent.valid {
			continue
		}
		if ent.processed {
			continue
		}
		part := ent.part
		slot := ent.slot
		if part.End {
			parts := append(append([]*isa.StreamCfgPart{}, e.building[slot]...), part)
			if parts[0].Start && parts[0].Kind == descriptor.Load {
				// Input streams synchronize with older pending scalar stores
				// and with still-active output streams before activating
				// (paper §III-A3: the processor orders input streams after
				// preceding writes).
				if (e.SyncStoresPending != nil && e.SyncStoresPending()) || e.storeStreamsBusy() {
					e.Stats.ConfigSyncStalls++
					return
				}
			}
			ent.processed = true
			e.activity++
			ent.restoreBuilding = e.building[slot]
			delete(e.building, slot)
			d, err := isa.RebuildDescriptor(parts)
			if err != nil {
				panic(fmt.Sprintf("engine: bad stream config for u%d: %v", part.Stream, err))
			}
			e.configure(slot, d)
			return
		}
		ent.processed = true
		e.activity++
		e.building[slot] = append(e.building[slot], part)
		return // one part per cycle
	}
}

// configure finalizes the descriptor on a rename-allocated stream entry and
// starts generation.
func (e *Engine) configure(slot int, d *descriptor.Descriptor) {
	if e.cfg.ForceLevel != nil {
		d = d.Clone()
		d.Level = *e.cfg.ForceLevel
	}
	s := e.entries[slot]
	if s == nil || s.released || !s.configuring {
		panic(fmt.Sprintf("engine: configuring slot %d in invalid state", slot))
	}
	s.configuring = false
	s.desc = d
	s.kind = d.Kind
	s.w = d.Width
	s.lanes = arch.LanesFor(e.vecBytes, d.Width)
	s.level = d.Level
	s.fifo = make([]chunk, e.cfg.FIFODepth)
	if lo, hi, ok := d.AffineHull(); ok && d.Kind == descriptor.Store {
		s.hull, s.minAddr, s.maxAddr = true, uint64(lo), uint64(hi)+uint64(d.Width)-1
	}
	s.origins = descriptor.NewOriginReader(e.hier.Mem.Read)
	for _, ou := range d.Origins() {
		oslot, ok := e.StreamFor(ou)
		if !ok || e.entries[oslot].configuring {
			panic(fmt.Sprintf("engine: stream u%d has unconfigured origin u%d", s.u, ou))
		}
		os := e.entries[oslot]
		os.engineConsumed = true
		s.originRefs = append(s.originRefs, os)
		s.origins.Add(ou, os.desc)
	}
	s.it = descriptor.NewIterator(d, s.origins)
	e.link(s)
	e.Stats.ConfigsCompleted++
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvStreamConfig, Arg0: int64(slot), Arg1: int64(s.u)})
	}
}

// trafficOf snapshots a configured stream's committed work.
func trafficOf(s *stream, released bool) StreamTraffic {
	return StreamTraffic{
		U: s.u, Kind: s.kind, Width: s.w, Level: s.level,
		Elems:         uint64(s.committedElems),
		Bytes:         uint64(s.committedElems) * uint64(s.w),
		Chunks:        uint64(s.commitPos),
		DimBoundaries: s.dimBounds,
		LineRequests:  s.lineReqs,
		StoreLines:    s.storeLineCnt,
		Complete:      released && s.totalKnown && s.commitPos == s.totalChunks,
	}
}

// Traffic returns the committed per-stream work records: released streams in
// release order, then snapshots of still-live configured streams in slot
// order. Idempotent — safe to call repeatedly or mid-run.
func (e *Engine) Traffic() []StreamTraffic {
	out := append([]StreamTraffic(nil), e.traffic...)
	for _, s := range e.live {
		out = append(out, trafficOf(s, false))
	}
	return out
}

// link adds a newly configured stream to the live list, in slot order.
func (e *Engine) link(s *stream) {
	i := len(e.live)
	e.live = append(e.live, s)
	for ; i > 0 && e.live[i-1].slot > s.slot; i-- {
		e.live[i] = e.live[i-1]
	}
	e.live[i] = s
}

// unlink removes a stream from the live list (a no-op for one not on it).
func (e *Engine) unlink(s *stream) {
	for i, l := range e.live {
		if l == s {
			e.live = append(e.live[:i], e.live[i+1:]...)
			return
		}
	}
}

func (e *Engine) releaseSlot(slot int) {
	s := e.entries[slot]
	if s == nil || s.released {
		return
	}
	e.sanEndSlot(s)
	// A Start-part squash releases a rename-allocated entry that never got
	// its descriptor (desc == nil): no work to record.
	if s.desc != nil {
		e.traffic = append(e.traffic, trafficOf(s, true))
		e.unlink(s)
	}
	s.released = true
	s.epoch++ // invalidate in-flight callbacks
	// Remove the slot's pending MRQ entries.
	kept := e.mrq[:0]
	for _, f := range e.mrq {
		if f.slot != slot || f.issued {
			kept = append(kept, f)
		}
	}
	e.mrq = kept
	e.freeSlots = append(e.freeSlots, slot)
	e.Stats.StreamsReleased++
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvStreamEnd, Arg0: int64(slot), Arg1: int64(s.u)})
	}
}
