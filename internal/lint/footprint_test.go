package lint

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// hullFits reports whether escape answers d from its hull, without a walk.
func hullFits(s extentSet, d *descriptor.Descriptor, cap int64) bool {
	f := descriptor.NewFootprint(d, cap)
	return f.Elems > 0 && f.Min >= 0 && s.contains(uint64(f.Min), f.Max-f.Min+f.Width)
}

// randAffine draws a modifier-free descriptor of 1–3 dimensions over
// [0x10000, 0x10000+~4 KiB), with signed offsets and strides.
func randAffine(r *rand.Rand) *descriptor.Descriptor {
	d := &descriptor.Descriptor{
		Base:  0x10000 + uint64(r.Intn(2048)),
		Width: []arch.ElemWidth{arch.W1, arch.W2, arch.W4, arch.W8}[r.Intn(4)],
		Kind:  descriptor.Load,
	}
	for k := 0; k < 1+r.Intn(3); k++ {
		d.Dims = append(d.Dims, descriptor.Dim{
			Offset: int64(r.Intn(7) - 3),
			Size:   int64(1 + r.Intn(12)),
			Stride: int64(r.Intn(11) - 5),
		})
	}
	return d
}

// randExtents draws up to four disjoint extents in address order, some
// adjacent, placed around the descriptor's hull so that some hold it
// whole, some split it and some miss part of it.
func randExtents(r *rand.Rand, d *descriptor.Descriptor) extentSet {
	f := descriptor.NewFootprint(d, 0)
	lo, hi := uint64(f.Min), uint64(f.Max+f.Width)
	var out []Extent
	at := lo - uint64(r.Intn(64))
	if r.Intn(3) == 0 {
		at = lo + uint64(r.Intn(16)) // may start inside the hull
	}
	for i := 0; i < 1+r.Intn(4); i++ {
		size := int64(r.Intn(int(hi-lo) + 128))
		if i == 0 && r.Intn(2) == 0 {
			size = int64(hi-at) + int64(r.Intn(32)) // hold the whole hull
		}
		out = append(out, Extent{Base: at, Size: size})
		at += uint64(size)
		if r.Intn(2) == 0 {
			at += uint64(r.Intn(64)) // a gap; otherwise adjacent
		}
	}
	return newExtentSet(out)
}

// TestHullShortcutMatchesWalk checks that answering a modifier-free stream
// from its closed-form hull gives the walk's verdict, first escaping
// element and index, over random descriptors and extent sets, including
// streams longer than the element cap.
func TestHullShortcutMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shortcuts, escapes := 0, 0
	for i := 0; i < 20000; i++ {
		d := randAffine(r)
		if err := d.Validate(); err != nil {
			continue
		}
		ext := randExtents(r, d)
		cap := int64(DefaultMaxFootprintElems)
		if r.Intn(4) == 0 {
			cap = int64(1 + r.Intn(40)) // shorter than many of the streams
		}
		gotA, gotN, gotOK := ext.escape(d, cap)
		wantA, wantN, wantOK := ext.walk(d, cap)
		if gotA != wantA || gotN != wantN || gotOK != wantOK {
			t.Fatalf("%+v over %+v cap %d: escape (%#x, %d, %v), walk (%#x, %d, %v)",
				d, ext, cap, gotA, gotN, gotOK, wantA, wantN, wantOK)
		}
		if hullFits(ext, d, cap) {
			shortcuts++
		}
		if wantOK {
			escapes++
		}
	}
	if shortcuts < 2000 || escapes < 2000 {
		t.Fatalf("weak coverage: %d hull shortcuts, %d escapes in 20000 cases", shortcuts, escapes)
	}
}

// TestHullShortcutCases pins the shapes the shortcut must not misjudge.
func TestHullShortcutCases(t *testing.T) {
	row := &descriptor.Descriptor{Base: 0x1000, Width: arch.W4, Kind: descriptor.Load,
		Dims: []descriptor.Dim{{Size: 64, Stride: 1}}} // bytes [0x1000, 0x1100)
	cases := []struct {
		name    string
		ext     []Extent
		cap     int64
		escapes bool
		at      int64
	}{
		{"one extent holds the hull", []Extent{{0x1000, 0x100}}, 0, false, 0},
		{"hull straddles two adjacent extents", []Extent{{0x1000, 0x80}, {0x1080, 0x80}}, 0, false, 0},
		{"an element straddles two adjacent extents", []Extent{{0x1000, 0x82}, {0x1082, 0x7e}}, 0, true, 32},
		{"the last element escapes", []Extent{{0x1000, 0xfc}}, 0, true, 63},
		{"the escape lies past the element cap", []Extent{{0x1000, 0xfc}}, 60, false, 0},
		{"the escape lies at the element cap", []Extent{{0x1000, 0xfc}}, 64, true, 63},
	}
	for _, tc := range cases {
		ext := newExtentSet(tc.ext)
		cap := tc.cap
		if cap == 0 {
			cap = DefaultMaxFootprintElems
		}
		_, n, ok := ext.escape(row, cap)
		if ok != tc.escapes || ok && n != tc.at {
			t.Errorf("%s: escape (%d, %v), want (%d, %v)", tc.name, n, ok, tc.at, tc.escapes)
		}
		_, wn, wok := ext.walk(row, cap)
		if wn != n || wok != ok {
			t.Errorf("%s: walk (%d, %v), escape (%d, %v)", tc.name, wn, wok, n, ok)
		}
	}
}
