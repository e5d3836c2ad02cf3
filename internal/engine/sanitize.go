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
// Tracking is byte-granular in a hash map, so the sanitizer is meant for
// verification runs at test sizes, not for timing experiments.

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
	touched   map[uint64]sanTouch
	slotAddrs map[int][]uint64 // slot → bytes its live instance touched
	seen      map[[3]int]bool  // dedup key {a, b, scalarPC}
	colls     []Collision
}

// NewShadow builds an empty shadow tracker.
func NewShadow() *Shadow {
	return &Shadow{
		touched:   make(map[uint64]sanTouch),
		slotAddrs: make(map[int][]uint64),
		seen:      make(map[[3]int]bool),
	}
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
	bit := sanTouch(1) << uint(u)
	if writes {
		bit <<= 32
	}
	for b := addr; b < addr+uint64(w); b++ {
		t := sz.touched[b]
		others := t.readers() | t.writers()
		if !writes {
			others = t.writers() // read/read is benign
		}
		others &^= 1 << uint(u)
		for v := 0; others != 0; v++ {
			if others&(1<<uint(v)) == 0 {
				continue
			}
			others &^= 1 << uint(v)
			sz.record(Collision{
				StreamA: v, StreamB: u, ScalarPC: -1, Addr: b,
				AWrites: t.writers()&(1<<uint(v)) != 0, BWrites: writes,
			})
		}
		if t&bit == 0 {
			sz.touched[b] = t | bit
			sz.slotAddrs[slot] = append(sz.slotAddrs[slot], b)
		}
	}
}

// End clears a released (or squash-deconfigured) instance's bytes: later
// touches of the same addresses no longer overlap it in time.
func (sz *Shadow) End(slot, u int) {
	mask := ^(sanTouch(1)<<uint(u) | sanTouch(1)<<uint(u+32))
	for _, b := range sz.slotAddrs[slot] {
		if t := sz.touched[b] & mask; t == 0 {
			delete(sz.touched, b)
		} else {
			sz.touched[b] = t
		}
	}
	delete(sz.slotAddrs, slot)
}

func (sz *Shadow) record(c Collision) {
	key := [3]int{c.StreamA, c.StreamB, c.ScalarPC}
	if sz.seen[key] {
		return
	}
	sz.seen[key] = true
	sz.colls = append(sz.colls, c)
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
	if n <= 0 {
		return
	}
	for b := addr; b < addr+uint64(n); b++ {
		t := sz.touched[b]
		others := t.readers() | t.writers()
		for v := 0; others != 0; v++ {
			if others&(1<<uint(v)) == 0 {
				continue
			}
			others &^= 1 << uint(v)
			sz.record(Collision{
				StreamA: v, StreamB: -1, ScalarPC: pc, Addr: b,
				AWrites: t.writers()&(1<<uint(v)) != 0, BWrites: true,
			})
		}
	}
}
