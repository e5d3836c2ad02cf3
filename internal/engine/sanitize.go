package engine

import (
	"fmt"
	"sort"
)

// The stream sanitizer shadow-tracks every byte address a live stream
// instance touches (recorded at address generation, the engine's functional
// access point) and flags runtime collisions: two simultaneously-live
// streams of different logical registers touching the same byte with at
// least one writer, or a committed scalar store landing on a byte a live
// stream has touched. It is the dynamic cross-check for the static
// dependence analyzer in internal/lint: an observed collision between a
// pair the analyzer proved disjoint is an analyzer soundness bug.
//
// Two instances of the same logical register are exempt (stream renaming
// plus the in-order SCROB serializes them), matching the analyzer's pairing
// rule. Scalar loads are exempt for the analyzer's reason: the LSQ holds
// them while StoreMayOverlap reports a conflicting store-stream chunk.
//
// Tracking is byte-granular, in a page table of dense per-byte entries: one
// map lookup per page, and none while accesses stay in the last page used.
// Each instance keeps the byte ranges whose bit it set, coalesced as they
// grow, and its release clears them range by range. Touching or clearing a
// byte costs an array access, so the tracker runs at the speed of the
// address stream it watches, and pages emptied by releases are reused.

// Collision is one observed runtime overlap. StreamB is -1 when the second
// accessor is a scalar store (ScalarPC then holds its instruction index).
type Collision struct {
	StreamA  int
	StreamB  int
	ScalarPC int
	Addr     uint64
	// AWrites/BWrites record each accessor's direction (a scalar store
	// always writes).
	AWrites bool
	BWrites bool
}

func (c Collision) String() string {
	b := fmt.Sprintf("u%d", c.StreamB)
	if c.StreamB < 0 {
		b = fmt.Sprintf("store@%d", c.ScalarPC)
	}
	return fmt.Sprintf("u%d vs %s at %#x", c.StreamA, b, c.Addr)
}

// sanTouch packs, per byte address, which live streams have read it (low 32
// bits) and written it (high 32 bits), indexed by logical register.
type sanTouch uint64

func (t sanTouch) readers() uint32 { return uint32(t) }
func (t sanTouch) writers() uint32 { return uint32(t >> 32) }

// Shadow is the sanitizer's byte-granular shadow tracker. The engine feeds
// it at address generation; the functional tier, which has no engine,
// records the same touches through its own Shadow. Sharing it keeps the
// two tiers' collision semantics (read/read benign, same logical register
// exempt, scalar stores checked but not recorded) from drifting: a
// differential test compares their pair sets directly.
type Shadow struct {
	pages    map[uint64]*sanPage // page number → entries, only pages holding a touched byte
	lastNum  uint64              // page number of lastPage
	lastPage *sanPage            // the page used last, nil when none is cached
	freePgs  []*sanPage          // emptied pages, all zero, reused before allocating

	slots    map[int]*sanSlot // instance slot → bytes whose bit it set
	lastID   int
	lastSlot *sanSlot // the slot touched last, nil when none is cached
	freeSlot []*sanSlot

	// Each accessor pair is recorded once, at the first byte it collides
	// on: pairSeen[u] holds bit v once stream u has collided with stream
	// v, and storeSeen[pc] bit v once the scalar store at pc has.
	pairSeen  [32]uint32
	storeSeen map[int]uint32
	colls     []Collision
}

// sanPageBits sizes a page: 512 bytes of address space, whose entries take
// 4 KiB.
const sanPageBits = 9

const sanPageMask = 1<<sanPageBits - 1

// sanPage holds one page's per-byte entries and how many are non-zero.
type sanPage struct {
	t    [1 << sanPageBits]sanTouch
	live int
}

// sanRange is the byte range [lo, hi).
type sanRange struct{ lo, hi uint64 }

// sanSlot lists, in touch order, the bytes whose bit one live instance set,
// as coalesced ranges. A byte whose bit was already set (by another
// instance of the same logical register) is not its to clear.
type sanSlot struct{ ranges []sanRange }

// NewShadow builds an empty shadow tracker.
func NewShadow() *Shadow {
	return &Shadow{
		pages:     make(map[uint64]*sanPage),
		slots:     make(map[int]*sanSlot),
		storeSeen: make(map[int]uint32),
	}
}

// page returns page number pn, or nil when it holds no touched byte and
// create is false.
func (sz *Shadow) page(pn uint64, create bool) *sanPage {
	if sz.lastPage != nil && sz.lastNum == pn {
		return sz.lastPage
	}
	p := sz.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		if n := len(sz.freePgs); n > 0 {
			p = sz.freePgs[n-1]
			sz.freePgs = sz.freePgs[:n-1]
		} else {
			p = new(sanPage)
		}
		sz.pages[pn] = p
	}
	sz.lastNum, sz.lastPage = pn, p
	return p
}

// release drops an emptied page, keeping it for reuse.
func (sz *Shadow) release(pn uint64, p *sanPage) {
	delete(sz.pages, pn)
	if sz.lastPage == p {
		sz.lastPage = nil
	}
	sz.freePgs = append(sz.freePgs, p)
}

// slot returns the record of instance id, creating it.
func (sz *Shadow) slot(id int) *sanSlot {
	if sz.lastSlot != nil && sz.lastID == id {
		return sz.lastSlot
	}
	s := sz.slots[id]
	if s == nil {
		if n := len(sz.freeSlot); n > 0 {
			s = sz.freeSlot[n-1]
			sz.freeSlot = sz.freeSlot[:n-1]
		} else {
			s = new(sanSlot)
		}
		sz.slots[id] = s
	}
	sz.lastID, sz.lastSlot = id, s
	return s
}

// add appends byte b to the slot's ranges, extending the last range when b
// follows it.
func (s *sanSlot) add(b uint64) {
	if n := len(s.ranges); n > 0 && s.ranges[n-1].hi == b {
		s.ranges[n-1].hi++
		return
	}
	s.ranges = append(s.ranges, sanRange{b, b + 1})
}

// pageSpan returns the last byte of [b, end) that shares b's page.
func pageSpan(b, end uint64) uint64 {
	return min(end-1, b|sanPageMask)
}

// EnableSanitizer switches on shadow address tracking. Call before the
// first cycle; collisions accumulate in Collisions.
func (e *Engine) EnableSanitizer() {
	if e.san == nil {
		e.san = NewShadow()
	}
}

// Collisions returns the observed collisions, deduplicated per accessor
// pair and sorted for stable reporting.
func (e *Engine) Collisions() []Collision {
	if e.san == nil {
		return nil
	}
	return e.san.Collisions()
}

// Collisions returns the observed collisions, deduplicated per accessor
// pair and sorted for stable reporting.
func (sz *Shadow) Collisions() []Collision {
	out := append([]Collision(nil), sz.colls...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StreamA != b.StreamA {
			return a.StreamA < b.StreamA
		}
		if a.StreamB != b.StreamB {
			return a.StreamB < b.StreamB
		}
		return a.Addr < b.Addr
	})
	return out
}

// Touch records stream u (instance slot) accessing [addr, addr+w) and
// reports any collision with other live streams' recorded accesses. The
// slot distinguishes instances of the same logical register; callers must
// keep it unique per configured instance.
func (sz *Shadow) Touch(u, slot int, addr uint64, w int64, writes bool) {
	end := addr + uint64(w)
	if w <= 0 || end <= addr {
		return
	}
	bit := sanTouch(1) << uint(u)
	if writes {
		bit <<= 32
	}
	var rec *sanSlot
	for b := addr; b < end; {
		last := pageSpan(b, end)
		p := sz.page(b>>sanPageBits, false)
		for ; ; b++ {
			var t sanTouch
			if p != nil {
				t = p.t[b&sanPageMask]
			}
			others := t.readers() | t.writers()
			if !writes {
				others = t.writers() // read/read is benign
			}
			if others &^= 1<<uint(u) | sz.pairSeen[u]; others != 0 {
				sz.pairSeen[u] |= others
				sz.collide(t, others, u, -1, b, writes)
			}
			if t&bit == 0 {
				if p == nil {
					p = sz.page(b>>sanPageBits, true)
				}
				if t == 0 {
					p.live++
				}
				p.t[b&sanPageMask] = t | bit
				if rec == nil {
					rec = sz.slot(slot)
				}
				rec.add(b)
			}
			if b == last {
				b++
				break
			}
		}
	}
}

// collide records the first collision at byte b, whose entry is t, between
// each stream in others and the accessor: stream u, or the scalar store at
// pc when u is -1.
func (sz *Shadow) collide(t sanTouch, others uint32, u, pc int, b uint64, writes bool) {
	for v := 0; others != 0; v++ {
		if others&(1<<uint(v)) == 0 {
			continue
		}
		others &^= 1 << uint(v)
		sz.colls = append(sz.colls, Collision{
			StreamA: v, StreamB: u, ScalarPC: pc, Addr: b,
			AWrites: t.writers()&(1<<uint(v)) != 0, BWrites: writes,
		})
	}
}

// End clears a released (or squash-deconfigured) instance's bytes: later
// touches of the same addresses no longer overlap it in time.
func (sz *Shadow) End(slot, u int) {
	s := sz.slots[slot]
	if s == nil {
		return
	}
	mask := ^(sanTouch(1)<<uint(u) | sanTouch(1)<<uint(u+32))
	for _, r := range s.ranges {
		for b := r.lo; b < r.hi; {
			last := pageSpan(b, r.hi)
			pn := b >> sanPageBits
			p := sz.page(pn, false)
			if p == nil {
				b = last + 1
				continue
			}
			for ; ; b++ {
				if t := p.t[b&sanPageMask]; t != 0 {
					if t &= mask; t == 0 {
						p.live--
					}
					p.t[b&sanPageMask] = t
				}
				if b == last {
					b++
					break
				}
			}
			if p.live == 0 {
				sz.release(pn, p)
			}
		}
	}
	delete(sz.slots, slot)
	if sz.lastSlot == s {
		sz.lastSlot = nil
	}
	s.ranges = s.ranges[:0]
	sz.freeSlot = append(sz.freeSlot, s)
}

// sanEndSlot is the release-side hook (releaseSlot and deconfigure).
func (e *Engine) sanEndSlot(s *stream) {
	if e.san == nil || s == nil {
		return
	}
	e.san.End(s.slot, s.u)
}

// NoteScalarStore is called by the core when a scalar/legacy store commits,
// checking its bytes against every live stream's recorded accesses. Scalar
// stores are not themselves recorded: streams configured later are ordered
// behind them by the engine's store-sync stall.
func (e *Engine) NoteScalarStore(pc int, addr uint64, n int) {
	if e.san == nil {
		return
	}
	e.san.NoteScalarStore(pc, addr, n)
}

// NoteScalarStore checks a committed scalar store's bytes against every
// live stream's recorded accesses without recording the store's own bytes.
func (sz *Shadow) NoteScalarStore(pc int, addr uint64, n int) {
	end := addr + uint64(n)
	if n <= 0 || end <= addr {
		return
	}
	seen := sz.storeSeen[pc]
	for b := addr; b < end; {
		last := pageSpan(b, end)
		p := sz.page(b>>sanPageBits, false)
		if p == nil {
			b = last + 1
			continue
		}
		for ; ; b++ {
			t := p.t[b&sanPageMask]
			if others := (t.readers() | t.writers()) &^ seen; others != 0 {
				seen |= others
				sz.collide(t, others, -1, pc, b, true)
			}
			if b == last {
				b++
				break
			}
		}
	}
	if seen != 0 {
		sz.storeSeen[pc] = seen
	}
}
