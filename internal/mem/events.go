package mem

import "math"

// NoEvent is the NextEventAt sentinel for "fully quiescent: no future state
// change unless new work arrives". It compares greater than every real cycle
// number, so min-reductions across units need no special casing.
const NoEvent int64 = math.MaxInt64

// NextEventAt returns a lower bound on the cycle of the DRAM's next state
// change, assuming no new requests arrive. A channel with an unstarted
// request acts when its data bus frees (never before now+1); started
// requests retire from the channel's earliest doneAt. Requests queued behind
// the first unstarted one are served in order, so it bounds them all.
func (d *DRAM) NextEventAt(now int64) int64 {
	next := NoEvent
	for i := range d.chans {
		ch := &d.chans[i]
		if ch.started < len(ch.queue) {
			next = min(next, max(ch.freeAt, now+1))
		}
		next = min(next, ch.doneAt)
	}
	return next
}

// NextEventAt returns the earliest next-event bound across the whole
// hierarchy (both caches, the shared L2, and DRAM).
func (h *Hierarchy) NextEventAt(now int64) int64 {
	next := h.DRAM.NextEventAt(now)
	if t := h.L2.NextEventAt(now); t < next {
		next = t
	}
	if t := h.L1D.NextEventAt(now); t < next {
		next = t
	}
	if t := h.L1I.NextEventAt(now); t < next {
		next = t
	}
	return next
}

// Activity returns a monotonic count of state-changing steps this cache has
// taken: accesses (including rejects, which tally), fill/writeback/prefetch
// issue attempts (which issue or tally a reject below) and matured
// completions. The event-driven scheduler snapshots it around a cycle; an
// unchanged count means the cycle provably left this cache's state alone.
func (c *Cache) Activity() uint64 { return c.activity }

// Activity is the DRAM counterpart of Cache.Activity: accesses (enqueue or
// queue-full tally), request starts and retirements.
func (d *DRAM) Activity() uint64 { return d.activity }

// Activity sums the per-unit activity counters — the hierarchy-wide
// quiescence witness the core's event scheduler folds into its own.
func (h *Hierarchy) Activity() uint64 {
	return h.L1D.Activity() + h.L1I.Activity() + h.L2.Activity() + h.DRAM.Activity()
}
