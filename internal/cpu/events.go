package cpu

import "repro/internal/mem"

// Event-driven cycle skipping (Config.EventSkip).
//
// Every pipeline stage is greedy: anything it can do in a cycle, it does in
// that cycle. So a Step in which nothing changed (stepQuiet: no activity
// counter moved — core, engine or memory hierarchy) proves the machine is
// in a fixed point — re-running the same Step on the same state does the same
// nothing — until some unit's clock-driven event fires: an execution result
// maturing (execDoneAt), a redirect hold expiring (fetchHoldTo), an engine
// pause or NACK backoff ending, a cache fill or DRAM access completing.
//
// maybeSkip collects those events and advances the clock directly to the
// earliest one. Soundness needs two more ingredients:
//
//  1. Per-cycle stall tallies. Some stalled states mutate statistics every
//     cycle without making progress (rename-block causes, fetch stalls, ROB
//     occupancy sums; engine FIFO-full/origin-stall/config-sync tallies;
//     cache/DRAM reject counters on retries). Either the state is reported
//     as busy by the unit's NextEventAt (engine and memory retries — no
//     skip happens), or the tally is a pure function of the frozen state
//     and maybeSkip adds exactly k more of it (core-side tallies below).
//  2. Watchdog equivalence. The skip target is capped at the cycles where
//     the no-commit watchdog and MaxCycles bound would abort, so a wedged
//     machine panics at the identical cycle with identical stats.
//
// The result: cycle counts, every statistic, and every architectural output
// are bit-identical with skipping on or off. TestEventSkipEquivalence
// enforces this across all kernels and variants.

// skipHook, when non-nil, observes every skip decision (testing only): the
// cycle skipped from, the target cycle, and the per-unit event bounds that
// justified it.
var skipHook func(from, to, coreEv, engEv, hierEv int64)

// maybeSkip advances the clock past provably-dead cycles. Called after each
// Step by Run; never during Step-driven unit tests (skipOK is set by Run).
func (c *Core) maybeSkip() {
	if !c.skipOK || !c.stepQuiet {
		return
	}
	// States that would act — or mutate a reject/stall counter — next cycle.
	if len(c.drainQ) > 0 || c.memPhaseBusy() {
		return
	}
	coreEv := c.nextEventAt()
	engEv := mem.NoEvent
	if c.eng != nil {
		engEv = c.eng.NextEventAt(c.cycle)
	}
	hierEv := c.hier.NextEventAt(c.cycle)
	t := coreEv
	if engEv < t {
		t = engEv
	}
	if hierEv < t {
		t = hierEv
	}
	if !c.halted {
		// The watchdog aborts at the first cycle with cycle-lastCommit >
		// Watchdog; never skip past it so a wedge panics identically.
		if bound := c.lastCommit + c.cfg.Watchdog + 1; t > bound {
			t = bound
		}
	}
	if c.cfg.MaxCycles > 0 && t > c.cfg.MaxCycles {
		t = c.cfg.MaxCycles
	}
	if t >= mem.NoEvent || t <= c.cycle+1 {
		return
	}
	k := t - 1 - c.cycle // dead cycles elided; the next Step lands on t

	// Compensate the per-cycle tallies the elided Steps would have made.
	// Each is a pure function of the frozen state, so "k more of what the
	// last Step did" is exact.
	c.Stats.ROBOccupancySum += k * int64(len(c.rob))
	if c.lastBlock != BlockNone {
		c.Stats.RenameBlockCause[c.lastBlock] += k
		if c.lastBlock == BlockStreamData || c.lastBlock == BlockStreamStore {
			c.Stats.StreamWait += k
		} else {
			c.Stats.RenameBlocked += k
		}
		if c.lastBlock == BlockSCROB {
			// tryRename consumes a sequence number before discovering the
			// SCROB is full; the elided cycles would have done the same.
			c.seq += k
		}
	}
	if c.fetchWouldStall() {
		c.Stats.FetchStallCycles += k
	}
	if c.eng != nil {
		// Engine-side tally-only frozen states (full FIFOs / full MRQ)
		// charge per cycle too; the engine knows which.
		c.eng.SkipStallTallies(c.cycle, k)
	}

	if skipHook != nil {
		skipHook(c.cycle, t, coreEv, engEv, hierEv)
	}
	c.skipped += k
	c.cycle += k
	c.Stats.Cycles = c.cycle
}

// nextEventAt returns the earliest core-side clock event: the next maturing
// execution result, or the fetch redirect hold expiring. Loads waiting on
// memory (execDoneAt 0) wake via cache callbacks, which the hierarchy's own
// events bound.
func (c *Core) nextEventAt() int64 {
	next := mem.NoEvent
	for _, e := range c.inflight {
		if e.execDoneAt > c.cycle && e.execDoneAt < next {
			next = e.execDoneAt
		}
	}
	if !c.fetchHalted && c.fetchHoldTo > c.cycle && c.fetchHoldTo < next {
		next = c.fetchHoldTo
	}
	return next
}

// memPhaseBusy reports whether memPhase would make progress — or retry a
// rejected line request, mutating reject counters — next cycle. It runs the
// same dependence/overlap scans as memPhase on the frozen state;
// conflict-blocked and stream-overlap-blocked loads are pure waits whose
// unblocking is driven by other entries' events.
func (c *Core) memPhaseBusy() bool {
	for _, e := range c.lq {
		if !loadEligible(e) {
			continue
		}
		conflict, fwd := c.loadConflict(e)
		if conflict {
			continue
		}
		if fwd != nil {
			return true // would forward next cycle
		}
		if c.loadStreamBlocked(e) {
			continue
		}
		if e.linesIssued < len(e.lines) {
			return true // would translate and issue line requests
		}
	}
	return false
}

// fetchWouldStall reports whether the elided cycles would each charge one
// FetchStallCycles tally: fetch active, decode has room, the line is neither
// buffered nor resident, and the fill request is already in flight (the
// only front-end state that stalls without mutating anything else).
func (c *Core) fetchWouldStall() bool {
	if c.fetchHalted || c.cycle < c.fetchHoldTo || len(c.decodeQ) >= c.cfg.DecodeQueue {
		return false
	}
	line := instLine(c.fetchPC)
	if c.ifetchHaveLine && c.ifetchReadyLine == line {
		return false
	}
	if c.hier.L1I.Contains(line) {
		return false
	}
	return c.ifetchBusy
}

// SkippedCycles returns how many dead cycles event-driven skipping elided
// (0 when disabled). Purely wall-clock accounting: skipped cycles are still
// counted in Stats.Cycles and every per-cycle statistic.
func (c *Core) SkippedCycles() int64 { return c.skipped }

// SkipDisabledReason returns why event skipping was forced off for this run
// ("" when it ran enabled, or was off by configuration).
func (c *Core) SkipDisabledReason() string { return c.skipReason }

// SetSkipLogger installs a sink for the skip-disabled notice (Run calls it
// once, before the first cycle, when Config.EventSkip is set but a tracing
// recorder forces skipping off).
func (c *Core) SetSkipLogger(fn func(string)) { c.skipLog = fn }
