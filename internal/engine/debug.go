package engine

import (
	"fmt"
	"io"
	"os"
)

// DumpStreams writes per-stream state to w (debugging helper). A nil writer
// defaults to stderr so mid-run dumps never corrupt machine-readable stdout
// (e.g. uvebench -json). Line-request observation, formerly the ad-hoc
// DebugReqTrace hook, now flows through the trace.Recorder as EvLineRequest.
func (e *Engine) DumpStreams(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	for _, s := range e.entries {
		if s == nil || s.released || s.desc == nil && !s.configuring {
			continue
		}
		fmt.Fprintf(w, "slot=%d u=%d cfg=%v done=%v total=%d(%v) commit=%d spec=%d gen=%d sawEnd=%v pendSt=%d kind=%v\n",
			s.slot, s.u, s.configuring, s.configDone, s.totalChunks, s.totalKnown,
			s.commitPos, s.specPos, s.genPos, s.coreSawEnd, s.pendingStoreLines, s.kind)
	}
}

// CheckLiveList reports the first disagreement between the live-stream list
// and the stream table: the list must hold exactly the configured,
// unreleased entries, in slot order. Tests call it after every cycle.
func (e *Engine) CheckLiveList() error {
	i := 0
	for slot, s := range e.entries {
		if s == nil || s.released || s.desc == nil {
			continue
		}
		if i >= len(e.live) || e.live[i] != s {
			return fmt.Errorf("engine: live list position %d does not hold live slot %d", i, slot)
		}
		i++
	}
	if i != len(e.live) {
		return fmt.Errorf("engine: live list holds %d streams, stream table %d", len(e.live), i)
	}
	return nil
}
