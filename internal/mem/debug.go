package mem

import "fmt"

// CheckWakeBounds reports the first wake bound that could let a unit sleep
// through an event: a cache's pendingAt above a pending completion's cycle,
// or a DRAM channel whose started requests are not the prefix its count
// says, or whose doneAt is above a started request's. Tests call it after
// every cycle.
func (h *Hierarchy) CheckWakeBounds() error {
	for _, c := range [...]*Cache{h.L1D, h.L1I, h.L2} {
		for _, p := range c.pending {
			if p.at < c.pendingAt {
				return fmt.Errorf("mem: %s wakes at %d, a completion is due at %d", c.cfg.Name, c.pendingAt, p.at)
			}
		}
	}
	for i := range h.DRAM.chans {
		ch := &h.DRAM.chans[i]
		if ch.started > len(ch.queue) {
			return fmt.Errorf("mem: DRAM channel %d counts %d started of %d queued", i, ch.started, len(ch.queue))
		}
		for j := range ch.queue {
			dr := &ch.queue[j]
			if dr.started != (j < ch.started) {
				return fmt.Errorf("mem: DRAM channel %d request %d started = %v, the started prefix is %d long", i, j, dr.started, ch.started)
			}
			if dr.started && dr.doneAt < ch.doneAt {
				return fmt.Errorf("mem: DRAM channel %d wakes at %d, request %d is done at %d", i, ch.doneAt, j, dr.doneAt)
			}
		}
	}
	return nil
}
