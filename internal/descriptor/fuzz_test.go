package descriptor_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// fuzzDescriptor decodes the fuzzer's raw inputs into a bounded, valid
// descriptor: up to three dimensions with small sizes plus an optional
// static modifier, mirroring the shapes of the quick-check corpus. ok is
// false when the decoded parameters fail validation.
func fuzzDescriptor(o0, s0 int8, e0 uint8, o1, s1 int8, e1 uint8, o2, s2 int8, e2 uint8,
	modTarget, modBehav, modDisp, modCount uint8) (*descriptor.Descriptor, bool) {
	w := arch.W4
	if e0%2 == 1 {
		w = arch.W8
	}
	b := descriptor.New(1<<20, w, descriptor.Load)
	b.Dim(int64(o0%8), 1+int64(e0%12), int64(s0%8))
	ndims := 1
	if e1 > 0 {
		b.Dim(int64(o1%8), 1+int64(e1%8), int64(s1%8))
		ndims++
	}
	if e1 > 0 && e2 > 0 {
		b.Dim(int64(o2%8), 1+int64(e2%6), int64(s2%8))
		ndims++
	}
	if ndims >= 2 && modCount > 0 {
		targets := []descriptor.Target{descriptor.TargetOffset, descriptor.TargetSize, descriptor.TargetStride}
		behavs := []descriptor.Behavior{descriptor.Add, descriptor.Sub}
		b.Mod(targets[modTarget%3], behavs[modBehav%2], 1+int64(modDisp%4), int64(modCount%8))
	}
	d, err := b.Build()
	return d, err == nil
}

// seedCorpus mirrors the property-test shapes in descriptor_test.go: affine
// 2-D/3-D patterns with offsets, a triangular static-modifier pattern, a
// column walk and a negative-stride sweep.
func seedCorpus(f *testing.F) {
	f.Add(int8(0), int8(1), uint8(8), int8(0), int8(1), uint8(0), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))     // linear
	f.Add(int8(0), int8(1), uint8(8), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))     // rows (TestQuickAffine2D)
	f.Add(int8(2), int8(1), uint8(6), int8(1), int8(4), uint8(5), int8(3), int8(2), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))     // offsets (TestQuickAffine3DWithOffsets)
	f.Add(int8(0), int8(1), uint8(0), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(1), uint8(0), uint8(1), uint8(7))     // triangular (TestQuickTriangular)
	f.Add(int8(0), int8(2), uint8(1), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))     // column
	f.Add(int8(0), int8(-1), uint8(8), int8(0), int8(-4), uint8(4), int8(0), int8(0), uint8(0), uint8(2), uint8(1), uint8(2), uint8(3))   // negative strides + stride mod
	f.Add(int8(-4), int8(3), uint8(11), int8(-2), int8(-5), uint8(7), int8(1), int8(6), uint8(5), uint8(1), uint8(1), uint8(3), uint8(5)) // mixed signs 3-D + size mod
}

// FuzzIterator checks iterator invariants on arbitrary bounded descriptors:
// the walk terminates, emits exactly the nested-loop element count for
// modifier-free patterns, flags dimension ends consistently, and marks Last
// exactly once. NextChunk's chunks, at several lane counts, concatenate to
// exactly Next's sequence, and each closes by the packing rule: at lanes
// elements or at an element ending dimension 0, and at no earlier element.
func FuzzIterator(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, o0, s0 int8, e0 uint8, o1, s1 int8, e1 uint8, o2, s2 int8, e2 uint8,
		modTarget, modBehav, modDisp, modCount uint8) {
		d, ok := fuzzDescriptor(o0, s0, e0, o1, s1, e1, o2, s2, e2, modTarget, modBehav, modDisp, modCount)
		if !ok {
			t.Skip()
		}
		const cap = 1 << 16
		it := descriptor.NewIterator(d, nil)
		var seq []descriptor.Elem
		n, lasts := 0, 0
		for n < cap {
			e, more := it.Next()
			if !more {
				break
			}
			seq = append(seq, e)
			n++
			if e.Last {
				lasts++
				if !e.EndsDim(0) || !e.EndsDim(len(d.Dims)-1) {
					t.Fatalf("Last element must end every dimension: %+v", e)
				}
			}
			for k := 1; k < len(d.Dims); k++ {
				if e.EndsDim(k) && !e.EndsDim(k-1) {
					t.Fatalf("end of dim %d without end of dim %d: %+v", k, k-1, e)
				}
			}
		}
		if n == cap {
			t.Fatalf("iterator did not terminate within %d elements: %v", cap, d)
		}
		if n > 0 && lasts != 1 {
			t.Fatalf("Last set %d times over %d elements: %v", lasts, n, d)
		}
		if len(d.Static) == 0 {
			want := int64(1)
			for _, dim := range d.Dims {
				want *= dim.Size
			}
			if int64(n) != want {
				t.Fatalf("emitted %d elements, nested-loop count is %d: %v", n, want, d)
			}
		}
		if n > 0 && seq[n-1].End&1 == 0 {
			t.Fatalf("final element does not end dimension 0: %+v", seq[n-1])
		}
		for _, lanes := range []int{1, 3, 4, 16} {
			ci := descriptor.NewIterator(d, nil)
			var c descriptor.Chunk
			pos := 0
			for ci.NextChunk(lanes, &c) {
				m := len(c.Addrs)
				if m == 0 || m > lanes || pos+m > n {
					t.Fatalf("lanes %d: chunk at %d holds %d elements of %d", lanes, pos, m, n)
				}
				for j, a := range c.Addrs {
					e := seq[pos+j]
					if a != e.Addr {
						t.Fatalf("lanes %d: chunk element %d is %#x, Next gave %#x", lanes, pos+j, a, e.Addr)
					}
					closes := j+1 == lanes || e.End&1 != 0
					if closes != (j == m-1) {
						t.Fatalf("lanes %d: chunk at %d closes after %d elements, element %d (End %#x) breaks the rule",
							lanes, pos, m, pos+j, e.End)
					}
				}
				if last := seq[pos+m-1]; c.End != last.End || c.Last != last.Last {
					t.Fatalf("lanes %d: chunk flags %#x/%v, closing element %#x/%v", lanes, c.End, c.Last, last.End, last.Last)
				}
				pos += m
			}
			if pos != n {
				t.Fatalf("lanes %d: chunks hold %d elements, Next gave %d", lanes, pos, n)
			}
		}
	})
}

// FuzzFootprint checks the symbolic footprint against full enumeration: an
// exact footprint must reproduce the oracle sequence (addresses, positions,
// hull, count), and FirstPos must agree with a linear scan.
func FuzzFootprint(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, o0, s0 int8, e0 uint8, o1, s1 int8, e1 uint8, o2, s2 int8, e2 uint8,
		modTarget, modBehav, modDisp, modCount uint8) {
		d, ok := fuzzDescriptor(o0, s0, e0, o1, s1, e1, o2, s2, e2, modTarget, modBehav, modDisp, modCount)
		if !ok {
			t.Skip()
		}
		fp := descriptor.NewFootprint(d, 1<<16)
		if fp.Top {
			return // budget exhaustion is legal, just imprecise
		}
		oracle := descriptor.Addresses(d, nil)
		if fp.Elems != int64(len(oracle)) {
			t.Fatalf("Elems = %d, oracle has %d: %v", fp.Elems, len(oracle), d)
		}
		if !fp.Exact() {
			return // hull-only: nothing further to cross-check cheaply
		}
		i := 0
		fp.EachElem(func(pos, addr int64) bool {
			if pos != int64(i) || uint64(addr) != oracle[i] {
				t.Fatalf("element %d: pos %d addr %#x, oracle %#x: %v", i, pos, addr, oracle[i], d)
			}
			i++
			return true
		})
		if i != len(oracle) {
			t.Fatalf("walked %d of %d elements", i, len(oracle))
		}
		// FirstPos agreement on each distinct address.
		probed := map[uint64]bool{}
		for first, a := range oracle {
			if probed[a] {
				continue
			}
			probed[a] = true
			pos, ok := fp.FirstPos(int64(a)-1, int64(a)+1)
			if !ok || pos != int64(first) {
				t.Fatalf("FirstPos(%#x) = %d,%v, oracle first %d: %v", a, pos, ok, first, d)
			}
		}
	})
}
