package engine

import "repro/internal/mem"

// Activity returns a monotonic count of state-changing steps the engine has
// taken on its own clock (SCROB processing, generation steps, line arrivals,
// store drains, engine-side chunk commits, auto-releases). Core-driven
// mutations (consume/reserve/commit calls) are not counted here — the core
// already accounts for its own activity. The scheduler snapshots this before
// and after a cycle: an unchanged count plus a future NextEventAt proves the
// cycle left no new work behind.
func (e *Engine) Activity() uint64 { return e.activity }

// NextEventAt returns a lower bound on the cycle of the engine's next
// self-driven state change, given the state after the Tick at now:
//
//   - now+1 while any work could run next Tick: an unprocessed SCROB entry
//     (processing — or the sync-stall tally it charges while blocked —
//     mutates every cycle), a stream with real generation work, an
//     issuable MRQ entry, a queued store line, or an origin-stalled stream
//     (whose stall tally also mutates stats every cycle);
//   - the earliest future resume time otherwise: an injected generation
//     pause (genPauseUntil) or MRQ NACK backoff (retryAt);
//   - mem.NoEvent when fully quiescent (line fetches in flight wake the
//     engine via the hierarchy's events, not its own).
//
// Generation candidates in a tally-only frozen state (full FIFO, full MRQ
// — see genFrozen) do not count as busy: the scheduler compensates their
// per-cycle charges via SkipStallTallies. The one exception is frozen
// streams of BOTH kinds oversubscribing the NumModules generation slots —
// there the round-robin rotation decides which kind charges each cycle, so
// the engine reports busy rather than compensate the rotation.
//
// Ticks strictly before the returned cycle are provable no-ops, which is
// what lets the core's event-driven scheduler skip them.
func (e *Engine) NextEventAt(now int64) int64 {
	for _, ent := range e.scrob {
		if ent.valid && !ent.processed {
			return now + 1
		}
	}
	next := mem.NoEvent
	var fifoFrozen, mrqFrozen int
	for _, s := range e.live {
		if s.wantsGen(now) {
			switch e.genFrozen(s) {
			case genFrozenFIFO:
				fifoFrozen++
			case genFrozenMRQ:
				mrqFrozen++
			default:
				return now + 1
			}
		}
		// A pause-deferred stream resumes generation at genPauseUntil.
		if !s.suspended && s.genPauseUntil > now && !(s.itDone && !s.genStarted && !s.itHas) {
			if s.genPauseUntil < next {
				next = s.genPauseUntil
			}
		}
		if e.originStalled(s) {
			return now + 1
		}
	}
	if fifoFrozen+mrqFrozen > e.cfg.NumModules && fifoFrozen > 0 && mrqFrozen > 0 {
		return now + 1
	}
	for _, f := range e.mrq {
		if f.issued {
			continue
		}
		if f.retryAt > now {
			if f.retryAt < next {
				next = f.retryAt
			}
			continue
		}
		return now + 1
	}
	if len(e.storeQ) > 0 {
		return now + 1
	}
	return next
}
