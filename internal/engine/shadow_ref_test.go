package engine

import (
	"fmt"
	"slices"
	"testing"
)

// refShadow is the byte-map tracker the page table replaced, kept as the
// reference semantics: one map entry per touched byte, and per instance a
// list of every byte whose bit it set.
type refShadow struct {
	touched   map[uint64]sanTouch
	slotAddrs map[int][]uint64
	seen      map[[3]int]bool
	colls     []Collision
}

func newRefShadow() *refShadow {
	return &refShadow{
		touched:   make(map[uint64]sanTouch),
		slotAddrs: make(map[int][]uint64),
		seen:      make(map[[3]int]bool),
	}
}

func (sz *refShadow) Touch(u, slot int, addr uint64, w int64, writes bool) {
	bit := sanTouch(1) << uint(u)
	if writes {
		bit <<= 32
	}
	for b := addr; b < addr+uint64(w); b++ {
		t := sz.touched[b]
		others := t.readers() | t.writers()
		if !writes {
			others = t.writers()
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

func (sz *refShadow) End(slot, u int) {
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

func (sz *refShadow) NoteScalarStore(pc int, addr uint64, n int) {
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

func (sz *refShadow) record(c Collision) {
	key := [3]int{c.StreamA, c.StreamB, c.ScalarPC}
	if sz.seen[key] {
		return
	}
	sz.seen[key] = true
	sz.colls = append(sz.colls, c)
}

// sameState reports the first byte whose entry differs between the page
// table and the reference map, and checks each page's live count.
func sameState(sz *Shadow, ref *refShadow) error {
	nonZero := 0
	for pn, p := range sz.pages {
		live := 0
		for i, t := range p.t {
			if t == 0 {
				continue
			}
			live++
			b := pn<<sanPageBits | uint64(i)
			if ref.touched[b] != t {
				return fmt.Errorf("byte %#x: entry %#x, reference %#x", b, t, ref.touched[b])
			}
		}
		if live != p.live || live == 0 {
			return fmt.Errorf("page %#x: live %d, %d entries set", pn, p.live, live)
		}
		nonZero += live
	}
	if nonZero != len(ref.touched) {
		return fmt.Errorf("%d bytes tracked, reference %d", nonZero, len(ref.touched))
	}
	return nil
}

// shadowOps replays a byte string as touches, releases and scalar stores on
// both trackers. The first 8 bytes map instance slots 0–7 to logical
// registers 0–4, so several slots share a register; each later 5-byte group
// is one operation. Addresses fall in a 4 KiB window that straddles a page
// boundary of the page table, and a few touches are long enough to span
// pages.
func shadowOps(data []byte, sz *Shadow, ref *refShadow, check func()) {
	var uOf [8]int
	for i := range uOf {
		if i < len(data) {
			uOf[i] = int(data[i] % 5)
		} else {
			uOf[i] = i % 5
		}
	}
	if len(data) > len(uOf) {
		data = data[len(uOf):]
	} else {
		data = nil
	}
	const base = 0x10000 - 0x800
	for ; len(data) >= 5; data = data[5:] {
		op, b1, b2, b3, b4 := data[0], data[1], data[2], data[3], data[4]
		slot := int(b1 % 8)
		addr := base + uint64(b2)<<4 | uint64(b3&0xf)
		switch op % 4 {
		case 0, 1: // touch: an element of 1–8 bytes, or a run of up to 600
			w := int64(1 + b4%8)
			if b4 >= 0xf0 {
				w = 1 + int64(b4&0xf)*40
			}
			writes := op&0x80 != 0
			sz.Touch(uOf[slot], slot, addr, w, writes)
			ref.Touch(uOf[slot], slot, addr, w, writes)
		case 2:
			sz.End(slot, uOf[slot])
			ref.End(slot, uOf[slot])
		case 3:
			n := int(1 + b4%16)
			sz.NoteScalarStore(int(b3), addr, n)
			ref.NoteScalarStore(int(b3), addr, n)
		}
		check()
	}
}

// FuzzShadowEquivalence drives the page-table tracker and the byte-map
// reference with the same touch, release and scalar-store sequence, and
// requires identical collisions, including the first byte each pair was
// seen at, and identical per-byte state after every operation.
func FuzzShadowEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 10, 0, 8, 0x80, 1, 10, 2, 8, 3, 1, 10, 0, 4})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0x80, 0, 0x7f, 0xf, 0xf5, 0x81, 2, 0x80, 0, 0xf0, 2, 0, 0, 0, 0, 0x80, 0, 0x80, 0, 8})
	f.Add([]byte{4, 4, 4, 4, 3, 3, 3, 3, 1, 0, 0x7f, 8, 0xff, 3, 1, 0x7f, 9, 4, 2, 0, 0, 0, 0, 0, 3, 0x7f, 0xc, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8+5*400 {
			data = data[:8+5*400]
		}
		sz, ref := NewShadow(), newRefShadow()
		step := 0
		shadowOps(data, sz, ref, func() {
			step++
			if err := sameState(sz, ref); err != nil {
				t.Fatalf("after operation %d: %v", step, err)
			}
		})
		got, want := sz.Collisions(), (&Shadow{colls: ref.colls}).Collisions()
		if !slices.Equal(got, want) {
			t.Fatalf("collisions %v, reference %v", got, want)
		}
	})
}
