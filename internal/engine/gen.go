package engine

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// --- iterator lookahead ---

func (s *stream) peek() (descriptor.Elem, bool) {
	if !s.itHas && !s.itDone {
		e, ok := s.it.Next()
		if ok {
			s.itPend = e
			s.itHas = true
		} else {
			s.itDone = true
		}
	}
	return s.itPend, s.itHas
}

func (s *stream) pop() descriptor.Elem {
	e := s.itPend
	s.itHas = false
	return e
}

// --- generation (Stream Processing Modules, paper Fig 7.B) ---

// wantsGen reports whether the stream has address-generation work at the
// given cycle (an injected dimension-boundary pause defers it).
func (s *stream) wantsGen(now int64) bool {
	if s.released || s.suspended || s.genPauseUntil > now {
		return false
	}
	if s.itDone && !s.genStarted && !s.itHas {
		return false
	}
	return true
}

// genStep advances one stream by one SPM step: at most one new cache-line
// request, elements appended to the building chunk while they share that
// line, a one-cycle stall on dimension switches.
func (e *Engine) genStep(s *stream, now int64) {
	if s.dimSwitch {
		// Clearing the dim-switch stall is a real state change.
		e.activity++
		s.dimSwitch = false
		e.Stats.DimSwitchStalls++
		if e.tracing {
			e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvDimSwitch, Arg0: int64(s.slot)})
		}
		return
	}
	// The two tally-only stall states deliberately do NOT count as engine
	// activity: a full FIFO (or an MRQ with no room for the next line)
	// freezes the stream, and the charge per stalled cycle is a pure
	// function of that frozen state. The event scheduler may therefore
	// skip these cycles; SkipStallTallies adds the charges the elided
	// genSteps would have made.
	if s.genPos-s.commitPos >= int64(len(s.fifo)) {
		e.Stats.FIFOFullCycles++
		if e.tracing {
			e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvFIFOFull, Arg0: int64(s.slot)})
		}
		return
	}
	if e.genBlockedOnMRQ(s) {
		e.Stats.MRQFullCycles++
		if e.tracing {
			e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvMRQFull, Arg0: int64(s.slot)})
		}
		return
	}
	e.activity++
	c := &s.fifo[s.genPos%int64(len(s.fifo))]
	if !s.genStarted {
		if _, ok := s.peek(); !ok {
			s.finishGen()
			return
		}
		start := s.elemsGenerated()
		c.reset(s.genPos, start)
		s.genStarted = true
	}
	var stepLine uint64
	haveLine := false
	for {
		// An open chunk's last element did not close it, so it was not the
		// final element (descriptor.NextChunk): another one follows.
		el, _ := s.peek()
		line := arch.LineOf(el.Addr)
		if s.kind == descriptor.Load {
			if !haveLine {
				if !e.ensureLine(s, line, now) {
					return // MRQ full: retry next cycle
				}
				stepLine = line
				haveLine = true
			} else if line != stepLine {
				return // next line next cycle; chunk stays open
			}
		}
		s.pop()
		e.placeElem(s, c, el)
		if descriptor.ClosesChunk(c.n, s.lanes, el) {
			e.closeChunk(s, c, el)
			if el.End != 0 && !el.Last {
				s.dimSwitch = true // switching descriptor dimensions costs +1 cycle
			}
			return
		}
	}
}

// genBlockedOnMRQ reports whether genStep on this stream would do nothing
// but charge one MRQFullCycles tally: generation is mid-pattern, the next
// element needs a line the stream cannot coalesce onto its last fetch, and
// the MRQ has no room. It mirrors exactly the first ensureLine call of
// genStep's line loop.
func (e *Engine) genBlockedOnMRQ(s *stream) bool {
	if !s.genStarted || s.kind != descriptor.Load || len(e.mrq) < e.cfg.MRQSize {
		return false
	}
	el, ok := s.peek()
	if !ok {
		return false
	}
	line := arch.LineOf(el.Addr)
	return !(s.lastLineState != 0 && s.lastLine == line)
}

// genFrozenKind classifies a wantsGen stream's tally-only frozen states.
type genFrozenKind int

const (
	genActive     genFrozenKind = iota // genStep would mutate real state
	genFrozenFIFO                      // full FIFO: tallies FIFOFullCycles
	genFrozenMRQ                       // full MRQ: tallies MRQFullCycles
)

// genFrozen classifies what genStep would do to this stream next cycle,
// following genStep's own check order (a pending dim-switch stall clears
// itself, so it is real work).
func (e *Engine) genFrozen(s *stream) genFrozenKind {
	if s.dimSwitch {
		return genActive
	}
	if s.genPos-s.commitPos >= int64(len(s.fifo)) {
		return genFrozenFIFO
	}
	if e.genBlockedOnMRQ(s) {
		return genFrozenMRQ
	}
	return genActive
}

// SkipStallTallies charges k more cycles of the engine's tally-only frozen
// generation states — what the elided Ticks' genSteps would have charged.
// Exact because the scheduler only skips when every candidate stream is
// frozen (NextEventAt), the frozen set cannot change without core, engine
// or hierarchy activity, and the per-cycle charge is a pure function of
// that set: all candidates charge when they fit in NumModules, otherwise
// NumModules of a single kind charge (mixed oversubscription is reported
// busy instead). The round-robin cursor advances too — schedule rotates it
// every cycle it sees candidates, frozen or not.
func (e *Engine) SkipStallTallies(now, k int64) {
	var fifoFrozen, mrqFrozen int64
	for _, s := range e.live {
		if !s.wantsGen(now) {
			continue
		}
		switch e.genFrozen(s) {
		case genFrozenFIFO:
			fifoFrozen++
		case genFrozenMRQ:
			mrqFrozen++
		}
	}
	total := fifoFrozen + mrqFrozen
	if total == 0 {
		return
	}
	if m := int64(e.cfg.NumModules); total > m {
		if fifoFrozen > 0 {
			fifoFrozen = m
		} else {
			mrqFrozen = m
		}
	}
	e.Stats.FIFOFullCycles += uint64(fifoFrozen * k)
	e.Stats.MRQFullCycles += uint64(mrqFrozen * k)
	e.rr += int(k)
}

// elemsGenerated counts elements placed into closed chunks so far.
func (s *stream) elemsGenerated() int64 {
	if s.genPos == 0 {
		return 0
	}
	prev := &s.fifo[(s.genPos-1)%int64(len(s.fifo))]
	return prev.startElem + int64(prev.n)
}

func (s *stream) finishGen() {
	if !s.totalKnown {
		s.totalChunks = s.genPos
		s.totalKnown = true
	}
}

// ensureLine guarantees a fetch exists (or completed) for the line; it
// returns false when the MRQ has no room for a new request.
func (e *Engine) ensureLine(s *stream, line uint64, now int64) bool {
	if s.lastLineState != 0 && s.lastLine == line {
		e.Stats.CoalescedReuses++
		return true
	}
	if len(e.mrq) >= e.cfg.MRQSize {
		e.Stats.MRQFullCycles++
		if e.tracing {
			e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvMRQFull, Arg0: int64(s.slot)})
		}
		return false
	}
	// Translation happens at the arbiter (paper Fig 7.A); a page fault
	// flags the affected elements instead of issuing a request.
	if _, fault := e.hier.TLB.Translate(line); fault {
		e.Stats.PageFaults++
		s.lastLine = line
		s.lastLineState = 2 // "complete", with fault
		s.lastFault = true
		return true
	}
	s.lastFault = false
	f := e.newFetch()
	f.slot, f.epoch = s.slot, s.epoch
	f.req.Line, f.req.MinLevel, f.req.PC = line, s.level, -(1000 + s.slot)
	e.mrq = append(e.mrq, f)
	e.Stats.LineRequests++
	s.lineReqs++
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvLineRequest, Arg0: int64(s.slot), Arg1: int64(line)})
	}
	s.lastLine = line
	s.lastLineState = 1
	s.lastFetch = f
	return true
}

// newFetch returns a cleared line fetch, reusing an arrived one (with its
// waiter buffer and bound request) when available.
func (e *Engine) newFetch() *lineFetch {
	if n := len(e.fetchFree); n > 0 {
		f := e.fetchFree[n-1]
		e.fetchFree = e.fetchFree[:n-1]
		*f = lineFetch{req: mem.Req{Done: f.req.Done}, waiters: f.waiters[:0]}
		return f
	}
	f := new(lineFetch)
	f.req.Done = func(at int64) { e.lineArrived(f, at) }
	return f
}

// placeElem appends one element to the building chunk, wiring its data
// availability to the pending line fetch when needed.
func (e *Engine) placeElem(s *stream, c *chunk, el descriptor.Elem) {
	lane := c.n
	if e.san != nil {
		e.san.Touch(s.u, s.slot, el.Addr, int64(s.w), s.kind == descriptor.Store)
	}
	c.addrs = append(c.addrs, el.Addr)
	c.data = append(c.data, 0)
	c.n++
	if s.kind != descriptor.Load {
		return
	}
	switch {
	case s.lastFault:
		c.fault = true
		c.faultAddr = el.Addr
	case s.lastLineState == 2:
		c.data[lane] = e.hier.Mem.Read(el.Addr, s.w)
	default:
		s.lastFetch.waiters = append(s.lastFetch.waiters, laneRef{seq: c.seq, lane: lane, addr: el.Addr})
		c.pendLines++
	}
}

func (e *Engine) closeChunk(s *stream, c *chunk, el descriptor.Elem) {
	c.end = el.End
	c.last = el.Last
	c.closed = true
	c.originNeed = append(c.originNeed[:0], s.origins.Counts()...)
	s.genStarted = false
	s.genPos++
	if e.tracing {
		e.rec.Emit(trace.Event{
			Cycle: e.now, Kind: trace.EvChunkProduced,
			Arg0: int64(s.slot), Arg1: c.seq, Arg2: int64(c.n),
		})
	}
	if el.Last {
		s.totalChunks = s.genPos
		s.totalKnown = true
	}
	if e.inj != nil && c.end != 0 && !c.last {
		// Adversarial suspend/resume: pause generation right at a descriptor
		// dimension boundary, while dimension-switch state is in flight.
		if d, ok := e.inj.SuspendAtDimBoundary(); ok {
			s.genPauseUntil = e.now + d
			if e.tracing {
				e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvInject, Arg0: trace.InjSuspend, Arg1: int64(s.slot), Arg2: d})
			}
		}
	}
	if s.kind == descriptor.Load {
		e.Stats.ChunksLoaded++
		e.Stats.ElementsLoaded += uint64(c.n)
	} else {
		e.Stats.ChunksStored++
		// Store addresses are translated when generated; faults surface
		// when the chunk is reserved/committed.
		seen := e.chunkLines[:0]
		for _, a := range c.addrs {
			l := arch.LineOf(a)
			if slices.Contains(seen, l) {
				continue
			}
			seen = append(seen, l)
			if _, fault := e.hier.TLB.Translate(l); fault {
				e.Stats.PageFaults++
				c.fault = true
				c.faultAddr = a
			}
		}
		e.chunkLines = seen
		// Settle origin debt for the origins this store stream gathers from.
	}
	s.settleOrigins()
}

// settleOrigins releases origin FIFO elements consumed by this stream's
// generation up to the last closed chunk.
func (s *stream) settleOrigins() {
	for i, n := range s.origins.Counts() {
		if os := s.originRefs[i]; n > os.settledElems {
			os.settledElems = n
		}
	}
}

// delivered returns how many leading elements of the stream have timing
// data available (committed plus the ready FIFO prefix).
func (s *stream) delivered() int64 {
	n := s.committedElems
	for seq := s.commitPos; seq < s.genPos; seq++ {
		c := &s.fifo[seq%int64(len(s.fifo))]
		if !c.loadReady() {
			break
		}
		n += int64(c.n)
	}
	return n
}

// originsDelivered reports whether all origin values the chunk depends on
// have arrived in the origin streams' FIFOs (timing pacing of indirection).
func (e *Engine) originsDelivered(s *stream, c *chunk) bool {
	for i, os := range s.originRefs {
		if i >= len(c.originNeed) {
			break
		}
		if os.released {
			continue // a released origin was fully delivered by definition
		}
		if os.delivered() < c.originNeed[i] {
			return false
		}
	}
	return true
}

// --- core-facing speculative consume/produce (paper §IV-A) ---

var syntheticEnd = ChunkView{N: 0, End: ^uint16(0), Last: true, Consumed: false}

// CanConsume reports whether ConsumeChunk would succeed without consuming.
func (e *Engine) CanConsume(slot int) bool {
	s := e.entries[slot]
	if s == nil || s.released {
		return true
	}
	if s.totalKnown && s.specPos >= s.totalChunks {
		return true
	}
	if s.specPos >= s.genPos {
		return false
	}
	c := &s.fifo[s.specPos%int64(len(s.fifo))]
	return c.loadReady() && e.originsDelivered(s, c)
}

// CanReserve reports whether ReserveStore would succeed without reserving.
func (e *Engine) CanReserve(slot int) bool {
	s := e.entries[slot]
	if s == nil || s.released {
		return true
	}
	if s.totalKnown && s.specPos >= s.totalChunks {
		return true
	}
	if s.specPos >= s.genPos {
		return false
	}
	c := &s.fifo[s.specPos%int64(len(s.fifo))]
	return c.closed && e.originsDelivered(s, c)
}

// ConsumeChunk hands the next load chunk to the rename stage. ok=false
// means the data has not arrived (rename must stall). Reads past the end of
// the stream return a synthetic empty chunk with Consumed=false.
func (e *Engine) ConsumeChunk(slot int) (ChunkView, bool) {
	s := e.entries[slot]
	if s == nil || s.released {
		return syntheticEnd, true
	}
	if s.totalKnown && s.specPos >= s.totalChunks {
		v := syntheticEnd
		v.PrevEnd, v.PrevLast = s.lastEnd, s.lastLast
		return v, true
	}
	if s.specPos >= s.genPos {
		return ChunkView{}, false
	}
	c := &s.fifo[s.specPos%int64(len(s.fifo))]
	if !c.loadReady() || !e.originsDelivered(s, c) {
		return ChunkView{}, false
	}
	v := ChunkView{
		Seq:       c.seq,
		Data:      isa.VecFrom(s.w, c.data[:c.n]),
		N:         c.n,
		End:       c.end,
		Last:      c.last,
		Fault:     c.fault,
		FaultAddr: c.faultAddr,
		Consumed:  true,
		PrevEnd:   s.lastEnd,
		PrevLast:  s.lastLast,
	}
	s.lastEnd, s.lastLast = c.end, c.last
	s.specPos++
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvChunkConsumed, Arg0: int64(s.slot), Arg1: c.seq})
	}
	return v, true
}

// ReserveStore reserves the next addressed store chunk at rename. ok=false
// means addresses are not generated yet (rename must stall).
func (e *Engine) ReserveStore(slot int) (ChunkView, bool) {
	s := e.entries[slot]
	if s == nil || s.released {
		return syntheticEnd, true
	}
	if s.totalKnown && s.specPos >= s.totalChunks {
		v := syntheticEnd
		v.PrevEnd, v.PrevLast = s.lastEnd, s.lastLast
		return v, true
	}
	if s.specPos >= s.genPos {
		return ChunkView{}, false
	}
	c := &s.fifo[s.specPos%int64(len(s.fifo))]
	if !c.closed || !e.originsDelivered(s, c) {
		return ChunkView{}, false
	}
	v := ChunkView{
		Seq: c.seq, N: c.n, End: c.end, Last: c.last,
		Fault: c.fault, FaultAddr: c.faultAddr,
		Consumed: true, PrevEnd: s.lastEnd, PrevLast: s.lastLast,
	}
	e.reserveStamp++
	c.stamp = e.reserveStamp
	s.lastEnd, s.lastLast = c.end, c.last
	s.specPos++
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvChunkConsumed, Arg0: int64(s.slot), Arg1: c.seq})
	}
	return v, true
}

// ReserveStamp returns the current reservation counter; a load renamed now
// is ordered after every reservation with a stamp ≤ this value.
func (e *Engine) ReserveStamp() int64 { return e.reserveStamp }

// Unconsume rewinds one speculative consume/reserve during a ROB walk; the
// buffered data stays valid and will be re-used without a new memory load
// (paper A3).
func (e *Engine) Unconsume(slot int, prevEnd uint16, prevLast bool) {
	s := e.entries[slot]
	if s == nil || s.released {
		return
	}
	if s.specPos > s.commitPos {
		s.specPos--
	}
	s.lastEnd, s.lastLast = prevEnd, prevLast
}

// WriteStoreData delivers computed lanes for a reserved store chunk (at the
// producing instruction's writeback).
func (e *Engine) WriteStoreData(slot int, seq int64, v *isa.VecVal) {
	s := e.entries[slot]
	if s == nil || s.released || seq < s.commitPos || seq >= s.specPos {
		return
	}
	c := &s.fifo[seq%int64(len(s.fifo))]
	if c.seq != seq {
		return
	}
	n := c.n
	if v.N < n {
		n = v.N
	}
	for i := 0; i < n; i++ {
		c.data[i] = isa.Truncate(s.w, v.Lane(i))
	}
	c.written = true
}

// CommitConsume retires the oldest speculative consume, freeing its FIFO
// slot for further run-ahead.
func (e *Engine) CommitConsume(slot int, seq int64) {
	s := e.entries[slot]
	if s == nil || s.released {
		return
	}
	c := &s.fifo[s.commitPos%int64(len(s.fifo))]
	if c.seq != seq || s.commitPos >= s.specPos {
		panic(fmt.Sprintf("engine: commit order violation on u%d (seq %d, commit %d, spec %d)", s.u, seq, s.commitPos, s.specPos))
	}
	s.committedElems += int64(c.n)
	s.commitEnd, s.commitLast = c.end, c.last
	if c.end != 0 && !c.last {
		s.dimBounds++
	}
	if c.last {
		s.coreSawEnd = true
	}
	s.commitPos++
}

// CommitStore retires the oldest reserved store chunk: lanes are written to
// memory functionally and the covered lines are queued for draining through
// the engine's store port.
func (e *Engine) CommitStore(slot int, seq int64, now int64) {
	s := e.entries[slot]
	if s == nil || s.released {
		return
	}
	c := &s.fifo[s.commitPos%int64(len(s.fifo))]
	if c.seq != seq || s.commitPos >= s.specPos {
		panic(fmt.Sprintf("engine: store commit order violation on u%d (seq %d)", s.u, seq))
	}
	for i := 0; i < c.n; i++ {
		e.hier.Mem.Write(c.addrs[i], s.w, c.data[i])
	}
	seen := e.chunkLines[:0]
	for _, a := range c.addrs {
		l := arch.LineOf(a)
		if slices.Contains(seen, l) {
			continue
		}
		seen = append(seen, l)
		e.storeQ = arch.Enqueue(e.storeQ, e.storeBuf, storeLine{line: l, level: s.level, s: s})
		s.pendingStoreLines++
		e.Stats.StoreLines++
		s.storeLineCnt++
	}
	e.chunkLines = seen
	e.Stats.ElementsStored += uint64(c.n)
	s.committedElems += int64(c.n)
	s.commitEnd, s.commitLast = c.end, c.last
	if c.end != 0 && !c.last {
		s.dimBounds++
	}
	if c.last {
		s.coreSawEnd = true
	}
	s.commitPos++
}

// SpecFlags returns the rename-time stream flags (end-of-dimension mask and
// end-of-stream) observed after the most recent speculative consume, which
// is what UVE's stream-conditional branches test.
func (e *Engine) SpecFlags(slot int) (uint16, bool) {
	s := e.entries[slot]
	if s == nil || s.released {
		return ^uint16(0), true
	}
	return s.lastEnd, s.lastLast
}

// LastFlags returns the final flags of a stream that already terminated and
// was released (branches may still test it).
func (e *Engine) LastFlags(u int) (uint16, bool) {
	if u < 0 || u >= len(e.sat) {
		return ^uint16(0), true
	}
	f := e.lastFlags[u]
	return f.end, f.last
}

// --- stream control ---
//
// Suspend/resume/stop take effect at RENAME so that younger instructions
// observe the new stream association in program order (a suspended
// register immediately reads as a normal vector register); a ROB-walk
// squash restores the previous state, and the destructive release of
// ss.stop happens at commit.

// CtlUndo records the state a stream-control µOp replaced.
type CtlUndo struct {
	Slot          int
	PrevSuspended bool
	Valid         bool
}

// RenameSuspend pauses the stream mapped to u (speculatively).
func (e *Engine) RenameSuspend(u int) CtlUndo {
	if u < 0 || u >= len(e.sat) || e.sat[u] < 0 {
		return CtlUndo{}
	}
	s := e.entries[e.sat[u]]
	if s == nil || s.released {
		return CtlUndo{}
	}
	undo := CtlUndo{Slot: s.slot, PrevSuspended: s.suspended, Valid: true}
	s.suspended = true
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvStreamSuspend, Arg0: int64(s.slot), Arg1: int64(s.u)})
	}
	return undo
}

// RenameResume reactivates a suspended stream (speculatively).
func (e *Engine) RenameResume(u int) CtlUndo {
	if u < 0 || u >= len(e.sat) || e.sat[u] < 0 {
		return CtlUndo{}
	}
	s := e.entries[e.sat[u]]
	if s == nil || s.released {
		return CtlUndo{}
	}
	undo := CtlUndo{Slot: s.slot, PrevSuspended: s.suspended, Valid: true}
	s.suspended = false
	if e.tracing {
		e.rec.Emit(trace.Event{Cycle: e.now, Kind: trace.EvStreamResume, Arg0: int64(s.slot), Arg1: int64(s.u)})
	}
	return undo
}

// RenameStop hides the stream from the SAT (speculatively); CommitStop
// performs the release.
func (e *Engine) RenameStop(u int) CtlUndo {
	return e.RenameSuspend(u)
}

// SquashCtl restores the state a stream-control µOp replaced.
func (e *Engine) SquashCtl(undo CtlUndo) {
	if !undo.Valid {
		return
	}
	if s := e.entries[undo.Slot]; s != nil && !s.released {
		s.suspended = undo.PrevSuspended
	}
}

// CommitStop releases a stopped stream's resources.
func (e *Engine) CommitStop(u int, undo CtlUndo) {
	if !undo.Valid {
		return
	}
	s := e.entries[undo.Slot]
	if s == nil || s.released {
		return
	}
	e.lastFlags[u] = flagPair{end: s.lastEnd, last: s.lastLast}
	e.releaseSlot(undo.Slot)
	if e.sat[u] == undo.Slot {
		e.sat[u] = -1
	}
}

// Stop releases the stream mapped to u immediately (non-pipelined callers
// such as tests).
func (e *Engine) Stop(u int) {
	e.CommitStop(u, e.RenameStop(u))
}

// StoreMayOverlap reports whether a reserved-but-uncommitted output-stream
// chunk covers the given byte range; the LSQ holds conventional loads until
// the overlapping stream writes commit (paper §IV-A "Memory Coherence":
// "data written by an output stream can be loaded using a conventional load
// instruction"). Committed writes are already architecturally visible, and
// not-yet-reserved pattern elements belong to younger instructions, so only
// the [commit, spec) window matters.
func (e *Engine) StoreMayOverlap(addr uint64, size int, beforeStamp int64) bool {
	end := addr + uint64(size) - 1
	for _, s := range e.live {
		if s.kind != descriptor.Store {
			continue
		}
		// Cheap reject on the whole pattern's hull first.
		if s.hull && (addr > s.maxAddr || end < s.minAddr) {
			continue
		}
		w := uint64(s.w)
		for seq := s.commitPos; seq < s.specPos; seq++ {
			c := &s.fifo[seq%int64(len(s.fifo))]
			if c.seq != seq || c.stamp > beforeStamp {
				continue
			}
			for _, a := range c.addrs[:c.n] {
				if a <= end && a+w-1 >= addr {
					return true
				}
			}
		}
	}
	return false
}

// storeStreamsBusy reports whether any output stream still has uncommitted
// chunks. Committed chunks are architecturally visible (the functional
// write happens at commit), so a newly configured input stream may start
// while the timing drain of older store lines is still in flight.
func (e *Engine) storeStreamsBusy() bool {
	for _, s := range e.live {
		if s.kind != descriptor.Store {
			continue
		}
		if !s.totalKnown || s.commitPos < s.totalChunks {
			return true
		}
	}
	return false
}

// StoresPending reports whether any committed stream store is still
// draining to memory.
func (e *Engine) StoresPending() bool {
	if len(e.storeQ) > 0 {
		return true
	}
	for _, s := range e.live {
		if s.pendingStoreLines > 0 {
			return true
		}
	}
	return false
}

// ActiveStreams counts configured, unreleased streams.
func (e *Engine) ActiveStreams() int { return len(e.live) }

// --- per-cycle operation ---

// Tick advances the engine by one cycle: SCROB retirement, stream
// scheduling across the processing modules, memory request issue (one load
// line and one store line per cycle — the engine's ports in Table I), and
// housekeeping.
func (e *Engine) Tick(now int64) {
	e.now = now
	e.processSCROB()
	e.schedule(now)
	e.issueMRQ(now)
	e.drainStore(now)
	e.advanceEngineConsumed()
	e.autoRelease()
	e.tallyOriginStalls(now)
}

// tallyOriginStalls charges one cycle per indirect stream whose head chunk
// is otherwise ready but waiting for origin-stream data to be delivered —
// the origin-stall component of the Fig 8.C breakdown. (Before this pass,
// Stats.OriginStallCycles was declared but never incremented.)
func (e *Engine) tallyOriginStalls(now int64) {
	for _, s := range e.live {
		if !e.originStalled(s) {
			continue
		}
		e.Stats.OriginStallCycles++
		if e.tracing {
			e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvOriginStall, Arg0: int64(s.slot)})
		}
	}
}

// originStalled reports whether the live stream's head chunk is ready but
// waiting on origin delivery — the condition tallyOriginStalls charges each
// cycle. NextEventAt shares it so cycles that would tally are never skipped.
func (e *Engine) originStalled(s *stream) bool {
	if len(s.originRefs) == 0 {
		return false
	}
	if s.specPos >= s.genPos {
		return false
	}
	c := &s.fifo[s.specPos%int64(len(s.fifo))]
	ready := c.closed
	if s.kind == descriptor.Load {
		ready = c.loadReady()
	}
	return ready && !e.originsDelivered(s, c)
}

// schedule picks the NumModules streams with the lowest FIFO occupancy
// (paper: "streams with lower FIFO occupancy take precedence") and runs one
// generation step on each. Ties go round-robin by slot, so the order is
// total; the candidates are sorted in the engine's scratch slice.
func (e *Engine) schedule(now int64) {
	cand := e.cand[:0]
	for _, s := range e.live {
		if s.wantsGen(now) {
			cand = append(cand, s)
		}
	}
	e.cand = cand
	if len(cand) == 0 {
		return
	}
	rr := e.rr
	e.rr++
	less := func(a, b *stream) bool {
		oa, ob := a.occupancy(), b.occupancy()
		if oa != ob {
			return oa < ob
		}
		return (a.slot+rr)%len(e.entries) < (b.slot+rr)%len(e.entries)
	}
	// Stable insertion sort: a handful of candidates, no allocation.
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && less(cand[j], cand[j-1]); j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	n := e.cfg.NumModules
	if n > len(cand) {
		n = len(cand)
	}
	for i := 0; i < n; i++ {
		e.genStep(cand[i], now)
	}
}

// issueMRQ sends pending line requests to the memory hierarchy, up to the
// engine's per-cycle load-port budget.
func (e *Engine) issueMRQ(now int64) {
	budget := e.cfg.LoadPorts
	if budget <= 0 {
		budget = 1
	}
	for _, f := range e.mrq {
		if budget == 0 {
			return
		}
		if f.issued {
			continue
		}
		if f.retryAt > now {
			continue // backing off after an injected NACK
		}
		if e.inj != nil {
			if backoff, nack := e.inj.NackLine(f.nacks); nack {
				f.nacks++
				f.retryAt = now + backoff
				if e.tracing {
					e.rec.Emit(trace.Event{Cycle: now, Kind: trace.EvInject, Arg0: trace.InjNack, Arg1: int64(f.slot), Arg2: int64(f.req.Line)})
				}
				continue
			}
		}
		if !e.hier.Access(now, &f.req) {
			return
		}
		f.issued = true
		budget--
	}
}

// lineArrived delivers a fetched line to its waiting lanes and recycles the
// fetch: the hierarchy is done with its request, and the MRQ and the
// stream's lastFetch no longer refer to it.
func (e *Engine) lineArrived(f *lineFetch, now int64) {
	e.activity++
	for i, q := range e.mrq {
		if q == f {
			e.mrq = append(e.mrq[:i], e.mrq[i+1:]...)
			break
		}
	}
	// A squashed or stopped stream (epoch moved on) drops the data.
	if s := e.entries[f.slot]; s != nil && s.epoch == f.epoch {
		for _, wr := range f.waiters {
			c := &s.fifo[wr.seq%int64(len(s.fifo))]
			if c.seq != wr.seq {
				continue
			}
			c.data[wr.lane] = e.hier.Mem.Read(wr.addr, s.w)
			c.pendLines--
		}
		if s.lastFetch == f {
			s.lastFetch = nil
			if s.lastLine == f.req.Line {
				s.lastLineState = 2
			}
		}
	}
	e.fetchFree = append(e.fetchFree, f)
}

// drainStore issues one committed store line per cycle through the engine's
// store port.
func (e *Engine) drainStore(now int64) {
	if len(e.storeQ) == 0 {
		return
	}
	sl := e.storeQ[0]
	// The paper's implementation issues stream stores to the L1; the Fig 11
	// sweep moves them with the configured level.
	e.storeReq = mem.Req{Line: sl.line, Write: true, MinLevel: sl.level}
	if !e.hier.Access(now, &e.storeReq) {
		return
	}
	e.storeQ = e.storeQ[1:]
	sl.s.pendingStoreLines--
	e.activity++
}

// advanceEngineConsumed commits chunks of origin streams as their values
// are settled by dependent streams' address generation.
func (e *Engine) advanceEngineConsumed() {
	for _, s := range e.live {
		if !s.engineConsumed {
			continue
		}
		for s.commitPos < s.genPos {
			c := &s.fifo[s.commitPos%int64(len(s.fifo))]
			if !c.loadReady() || c.startElem+int64(c.n) > s.settledElems {
				break
			}
			s.committedElems += int64(c.n)
			if c.end != 0 && !c.last {
				s.dimBounds++
			}
			if c.last {
				s.coreSawEnd = true
			}
			s.commitPos++
			e.activity++
			if s.specPos < s.commitPos {
				s.specPos = s.commitPos
			}
		}
	}
}

// autoRelease frees streams whose pattern has fully committed — the paper's
// termination "by committing an instruction that signals the completion of
// the streaming pattern" (§IV-A). A release unlinks live[i], so the walk
// stays at i.
func (e *Engine) autoRelease() {
	for i := 0; i < len(e.live); {
		s := e.live[i]
		if !s.configDone || !s.totalKnown || s.commitPos != s.totalChunks || s.pendingStoreLines > 0 || !s.coreSawEnd {
			i++
			continue
		}
		if e.sat[s.u] == s.slot {
			e.lastFlags[s.u] = flagPair{end: s.lastEnd, last: s.lastLast}
			e.sat[s.u] = -1
		}
		e.releaseSlot(s.slot)
		e.activity++
	}
}

// StorageFootprint returns the engine's storage cost in bytes, reproducing
// the §VI-C accounting: the Stream Table and SCROB, the Memory Request
// Queue (10 B entries) and the Load/Store FIFOs (vector chunk + flags per
// entry).
func StorageFootprint(cfg Config) (table, mrq, fifos int) {
	const dimBytes, modBytes, headerBytes = 24, 24, 48
	table = cfg.LogStreams*(descriptor.MaxDims*dimBytes+descriptor.MaxMods*modBytes+headerBytes) +
		cfg.SCROBSize*64
	mrq = cfg.MRQSize * 10
	fifos = cfg.LogStreams * cfg.FIFODepth * (cfg.VecBytes + 2)
	return table, mrq, fifos
}
