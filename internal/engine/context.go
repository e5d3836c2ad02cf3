package engine

import (
	"fmt"

	"repro/internal/descriptor"
)

// ReloadFromCommit discards all speculative and buffered state of a stream
// and regenerates from the committed position: precise-exception recovery
// (page faults) re-loads buffered data this way.
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

// ReloadAllFromCommit rewinds every active stream to its committed state
// (precise-exception recovery: buffered data is re-loaded).
func (e *Engine) ReloadAllFromCommit() {
	for _, s := range e.live {
		e.ReloadFromCommit(s.slot)
	}
}

// fastForward rebuilds the iterator, rewinds the origin walks and replays
// the chunk packing up to the committed element count.
func (e *Engine) fastForward(s *stream) {
	s.origins.Rewind()
	s.it = descriptor.NewIterator(s.desc, s.origins)
	s.itHas = false
	s.itDone = false
	s.lastLineState = 0
	s.lastFetch = nil
	s.lastFault = false
	s.dimSwitch = false
	s.genPauseUntil = 0

	var c descriptor.Chunk
	var elems, chunks int64
	for elems < s.committedElems && s.it.NextChunk(s.lanes, &c) {
		elems += int64(len(c.Addrs))
		chunks++
	}
	if elems != s.committedElems || chunks != s.commitPos {
		panic(fmt.Sprintf("engine: fast-forward of u%d replayed %d elements in %d chunks, committed %d in %d",
			s.u, elems, chunks, s.committedElems, s.commitPos))
	}
	s.settleOrigins()
}
