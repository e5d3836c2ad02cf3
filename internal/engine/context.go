package engine

import (
	"fmt"

	"repro/internal/descriptor"
)

// StreamContext is the saved commit-point state of one stream: descriptor
// plus committed iteration position. Its serialized size is
// Descriptor.StateBytes() (32 B for 1-D patterns up to ~400 B for the
// maximum configuration, paper §IV-A "Context Switching").
type StreamContext struct {
	U               int
	Desc            *descriptor.Descriptor
	CommittedElems  int64
	CommittedChunks int64
	End             uint16
	Last            bool
	Suspended       bool
}

// SaveContext suspends all active streams and returns their commit-point
// state together with the total saved size in bytes. Prefetched FIFO data
// is deliberately not saved: resuming re-loads it (as the paper specifies).
func (e *Engine) SaveContext() ([]StreamContext, int) {
	var out []StreamContext
	bytes := 0
	// Origins must precede their dependents so RestoreContext can resolve
	// indirection; dependents reference origins that were configured first,
	// so ordering by slot-activation order is not enough — emit
	// engine-consumed streams first.
	emit := func(wantOrigin bool) {
		for u := range e.sat {
			slot := e.sat[u]
			if slot < 0 {
				continue
			}
			s := e.entries[slot]
			if s == nil || s.released || s.desc == nil || s.engineConsumed != wantOrigin {
				continue
			}
			out = append(out, StreamContext{
				U:               u,
				Desc:            s.desc.Clone(),
				CommittedElems:  s.committedElems,
				CommittedChunks: s.commitPos,
				End:             s.commitEnd,
				Last:            s.commitLast,
				Suspended:       s.suspended,
			})
			bytes += s.desc.StateBytes()
			s.suspended = true
		}
	}
	emit(true)
	emit(false)
	return out, bytes
}

// DropAll releases every stream (the old thread's streams after a context
// switch; their state lives in the saved contexts).
func (e *Engine) DropAll() {
	for u := range e.sat {
		e.Stop(u)
	}
}

// RestoreContext reconfigures streams from saved state and fast-forwards
// each to its committed position. All buffered data is regenerated (the
// paper: "all pre-fetched data in internal buffers is lost and must be
// re-loaded").
func (e *Engine) RestoreContext(ctxs []StreamContext) {
	for _, ctx := range ctxs {
		slot := e.allocAndConfigure(ctx.U, ctx.Desc)
		s := e.entries[slot]
		s.configDone = true
		s.commitPos = ctx.CommittedChunks
		s.specPos = ctx.CommittedChunks
		s.genPos = ctx.CommittedChunks
		s.committedElems = ctx.CommittedElems
		s.commitEnd, s.commitLast = ctx.End, ctx.Last
		s.lastEnd, s.lastLast = ctx.End, ctx.Last
		s.suspended = ctx.Suspended
		e.fastForward(s)
	}
}

// ReloadFromCommit discards all speculative and buffered state of a stream
// and regenerates from the committed position. Used for exception recovery
// (page faults) and resuming suspended streams after a context switch.
func (e *Engine) ReloadFromCommit(slot int) {
	s := e.entries[slot]
	if s == nil || s.released || s.desc == nil {
		return
	}
	s.epoch++ // orphan in-flight line fetches
	kept := e.mrq[:0]
	for _, f := range e.mrq {
		if f.slot != slot || f.issued {
			kept = append(kept, f)
		}
	}
	e.mrq = kept
	s.specPos = s.commitPos
	s.genPos = s.commitPos
	s.genStarted = false
	s.lastEnd, s.lastLast = s.commitEnd, s.commitLast
	e.fastForward(s)
}

// allocAndConfigure allocates a stream entry and immediately finalizes its
// descriptor (context restore bypasses the SCROB, as the OS would).
func (e *Engine) allocAndConfigure(u int, d *descriptor.Descriptor) int {
	if len(e.freeSlots) == 0 {
		panic("engine: stream table full during context restore")
	}
	slot := e.freeSlots[len(e.freeSlots)-1]
	e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
	var epoch uint64
	if old := e.entries[slot]; old != nil {
		epoch = old.epoch + 1
	}
	e.entries[slot] = &stream{
		slot: slot, epoch: epoch, u: u,
		kind: d.Kind, w: d.Width, level: d.Level,
		configuring: true,
	}
	e.sat[u] = slot
	e.configure(slot, d)
	return slot
}

// ReloadAllFromCommit rewinds every active stream to its committed state
// (precise-exception recovery: buffered data is re-loaded).
func (e *Engine) ReloadAllFromCommit() {
	for _, s := range e.live {
		e.ReloadFromCommit(s.slot)
	}
}

// fastForward rebuilds the iterator (and indirection shadows) and replays
// the deterministic chunk packing up to the committed element count.
func (e *Engine) fastForward(s *stream) {
	if s.shadow != nil {
		for i, u := range s.originUs {
			s.shadow.its[u] = descriptor.NewIterator(s.originRefs[i].desc, nil)
		}
		s.shadow.owner = s
		for i := range s.originCum {
			s.originCum[i] = 0
		}
	}
	s.it = descriptor.NewIterator(s.desc, s.shadow)
	s.itHas = false
	s.itDone = false
	s.lastLineState = 0
	s.lastFetch = nil
	s.lastFault = false
	s.dimSwitch = false
	s.genPauseUntil = 0

	skipped, chunks, lanes := int64(0), int64(0), 0
	for skipped < s.committedElems {
		el, ok := s.peek()
		if !ok {
			panic(fmt.Sprintf("engine: fast-forward of u%d ran out of elements at %d/%d", s.u, skipped, s.committedElems))
		}
		s.pop()
		skipped++
		lanes++
		if lanes >= s.lanes || el.EndsDim(0) {
			chunks++
			lanes = 0
		}
	}
	if chunks != s.commitPos {
		panic(fmt.Sprintf("engine: fast-forward chunk mismatch on u%d: replayed %d, committed %d", s.u, chunks, s.commitPos))
	}
	s.settleOrigins()
}
