package cost

// White-box property tests for the shape algebra: the closed-form affine
// path and the budgeted walk must agree with each other and with a direct
// enumeration of descriptor.Iterator under the functional tier's chunking
// rule. The fuzz target reuses the descriptor fuzz corpus shape (same
// 13-argument encoding and seeds) so crashers found there replay here.

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// oracleWork independently re-derives a stream's work by enumerating the
// iterator once: chunk metas under the close-at-lane-full-or-EndsDim(0)
// rule, plus the generator's line quantities from the address sequence.
type oracleChunk struct {
	n    int64
	end  uint16
	last bool
}

type oracle struct {
	elems, dimBounds int64
	metas            []oracleChunk
	lineReqs, segs   int64
	storeLines       int64
	lines            map[uint64]bool
}

func oracleWork(d *descriptor.Descriptor, lanes int) *oracle {
	o := &oracle{lines: map[uint64]bool{}}
	var cur int64
	var lastLine, chunkLine uint64
	haveLast := false
	chunkSeen := map[uint64]bool{}
	for _, el := range descriptor.Sequence(d, nil) {
		o.elems++
		line := arch.LineOf(el.Addr)
		o.lines[line] = true
		if !haveLast || line != lastLine {
			o.lineReqs++
			lastLine, haveLast = line, true
		}
		if cur == 0 || line != chunkLine {
			o.segs++
			chunkLine = line
		}
		if !chunkSeen[line] {
			chunkSeen[line] = true
			o.storeLines++
		}
		cur++
		if cur >= int64(lanes) || el.EndsDim(0) {
			o.metas = append(o.metas, oracleChunk{n: cur, end: el.End, last: el.Last})
			if el.End != 0 && !el.Last {
				o.dimBounds++
			}
			cur = 0
			chunkSeen = map[uint64]bool{}
		}
	}
	return o
}

// checkAgainstOracle compares one streamWork against the oracle: every
// count, every chunk's flags and lane count, every prefix, and every line
// quantity.
func checkAgainstOracle(t *testing.T, tag string, w *streamWork, o *oracle) {
	t.Helper()
	checkCounts(t, tag, w, o)
	if !w.addrExact {
		t.Fatalf("%s: address quantities degraded (%s) on a statically known pattern", tag, w.addrNote)
	}
	if w.lineReqs != o.lineReqs || w.segs != o.segs || w.storeLines != o.storeLines {
		t.Fatalf("%s: lineReqs/segs/storeLines %d/%d/%d, oracle %d/%d/%d",
			tag, w.lineReqs, w.segs, w.storeLines, o.lineReqs, o.segs, o.storeLines)
	}
	if len(w.lines) != len(o.lines) {
		t.Fatalf("%s: %d unique lines, oracle %d", tag, len(w.lines), len(o.lines))
	}
	for _, l := range w.lines {
		if !o.lines[l] {
			t.Fatalf("%s: line %#x not in oracle set", tag, l)
		}
	}
}

// checkCounts compares a streamWork's counts, chunk flags, lane counts and
// prefixes against the oracle.
func checkCounts(t *testing.T, tag string, w *streamWork, o *oracle) {
	t.Helper()
	if w == nil {
		t.Fatalf("%s: nil work", tag)
	}
	if !w.exact {
		t.Fatalf("%s: degraded to interval (%s) on a statically known pattern", tag, w.note)
	}
	if w.elems != o.elems || w.chunks != int64(len(o.metas)) || w.dimBounds != o.dimBounds {
		t.Fatalf("%s: elems/chunks/dims %d/%d/%d, oracle %d/%d/%d",
			tag, w.elems, w.chunks, w.dimBounds, o.elems, len(o.metas), o.dimBounds)
	}
	if w.hi != uint64(o.elems) {
		t.Fatalf("%s: hi %d, oracle elems %d", tag, w.hi, o.elems)
	}
	var runEl, runDb int64
	for i := int64(0); i < w.chunks; i++ {
		end, last := w.flagAt(i)
		m := o.metas[i]
		if end != m.end || last != m.last {
			t.Fatalf("%s: chunk %d flags end=%#x last=%v, oracle end=%#x last=%v",
				tag, i, end, last, m.end, m.last)
		}
		if n := w.nAt(i); n != m.n {
			t.Fatalf("%s: chunk %d has %d lanes, oracle %d", tag, i, n, m.n)
		}
		el, db := w.prefix(i)
		if el != runEl || db != runDb {
			t.Fatalf("%s: prefix(%d) = %d/%d, oracle %d/%d", tag, i, el, db, runEl, runDb)
		}
		runEl += m.n
		if m.end != 0 && !m.last {
			runDb++
		}
	}
	// Full and past-the-end prefixes saturate at the totals.
	for _, c := range []int64{w.chunks, w.chunks + 7} {
		if el, db := w.prefix(c); el != o.elems || db != o.dimBounds {
			t.Fatalf("%s: prefix(%d) = %d/%d, want totals %d/%d", tag, c, el, db, o.elems, o.dimBounds)
		}
	}
}

// checkShape cross-checks the walk (and, for pure affine descriptors, the
// closed form's counts) against the oracle for one descriptor and lane
// count.
func checkShape(t *testing.T, d *descriptor.Descriptor, lanes int) {
	t.Helper()
	o := oracleWork(d, lanes)
	ww := walkWork(d, lanes, nil, DefaultWalkElems)
	checkAgainstOracle(t, "walk", ww, o)
	if len(d.Static) == 0 && !d.HasIndirect() {
		aw := affineWork(d, lanes)
		if aw == nil {
			t.Fatal("closed form refused an in-budget affine descriptor")
		}
		checkCounts(t, "closed-form", aw, o)
	}
	// computeWork must route to an exact answer either way.
	cw := computeWork(d, lanes, nil, DefaultWalkElems)
	checkAgainstOracle(t, "computeWork", cw, o)
}

var shapeLanes = []int{1, 2, 3, 4, 8, 16}

// TestClosedFormMatchesWalk sweeps a deterministic grid of affine and
// static-modifier descriptors across lane counts.
func TestClosedFormMatchesWalk(t *testing.T) {
	descs := []*descriptor.Descriptor{
		descriptor.New(1<<20, arch.W8, descriptor.Load).Linear(1, 1).MustBuild(),
		descriptor.New(1<<20, arch.W8, descriptor.Load).Linear(17, 1).MustBuild(),
		descriptor.New(1<<20, arch.W4, descriptor.Load).Linear(64, 3).MustBuild(),
		descriptor.New(1<<20, arch.W4, descriptor.Store).
			Dim(0, 7, 1).Dim(0, 5, 7).MustBuild(),
		descriptor.New(1<<20, arch.W8, descriptor.Load).
			Dim(2, 8, 1).Dim(1, 4, 9).Dim(3, 3, 40).MustBuild(),
		descriptor.New(1<<20, arch.W4, descriptor.Load).
			Dim(0, 16, -1).Dim(0, 4, -16).MustBuild(), // negative strides
		descriptor.New(1<<20, arch.W4, descriptor.Load).
			Dim(0, 1, 0).Dim(0, 9, 16).MustBuild(), // size-1 inner dim: every chunk ends dim 0
		descriptor.New(1<<20, arch.W4, descriptor.Load).
			Dim(0, 5, 1).Dim(0, 6, 5).
			Mod(descriptor.TargetSize, descriptor.Add, 1, 5).MustBuild(), // triangular
		descriptor.New(1<<20, arch.W8, descriptor.Load).
			Dim(0, 8, 1).Dim(0, 4, 8).
			Mod(descriptor.TargetOffset, descriptor.Add, 2, 3).MustBuild(),
		descriptor.New(1<<20, arch.W4, descriptor.Load).
			Dim(0, 6, 2).Dim(0, 5, 12).
			Mod(descriptor.TargetStride, descriptor.Sub, 1, 4).MustBuild(),
	}
	for di, d := range descs {
		for _, lanes := range shapeLanes {
			t.Run(fmt.Sprintf("d%d/l%d", di, lanes), func(t *testing.T) {
				checkShape(t, d, lanes)
			})
		}
	}
}

// fuzzShapeDescriptor mirrors the descriptor package's fuzz decoder byte
// for byte, so the two corpora stay interchangeable.
func fuzzShapeDescriptor(o0, s0 int8, e0 uint8, o1, s1 int8, e1 uint8, o2, s2 int8, e2 uint8,
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

func shapeSeedCorpus(f *testing.F) {
	f.Add(int8(0), int8(1), uint8(8), int8(0), int8(1), uint8(0), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int8(0), int8(1), uint8(8), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int8(2), int8(1), uint8(6), int8(1), int8(4), uint8(5), int8(3), int8(2), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int8(0), int8(1), uint8(0), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(1), uint8(0), uint8(1), uint8(7))
	f.Add(int8(0), int8(2), uint8(1), int8(0), int8(4), uint8(8), int8(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int8(0), int8(-1), uint8(8), int8(0), int8(-4), uint8(4), int8(0), int8(0), uint8(0), uint8(2), uint8(1), uint8(2), uint8(3))
	f.Add(int8(-4), int8(3), uint8(11), int8(-2), int8(-5), uint8(7), int8(1), int8(6), uint8(5), uint8(1), uint8(1), uint8(3), uint8(5))
}

// FuzzClosedFormWalk checks walk-vs-oracle (and closed-form-vs-oracle when
// affine) agreement over arbitrary bounded descriptors; the lane count is
// derived from the inputs so chunking edge cases (lanes 1, lanes ≥ size0)
// get exercised too.
func FuzzClosedFormWalk(f *testing.F) {
	shapeSeedCorpus(f)
	f.Fuzz(func(t *testing.T, o0, s0 int8, e0 uint8, o1, s1 int8, e1 uint8, o2, s2 int8, e2 uint8,
		modTarget, modBehav, modDisp, modCount uint8) {
		d, ok := fuzzShapeDescriptor(o0, s0, e0, o1, s1, e1, o2, s2, e2, modTarget, modBehav, modDisp, modCount)
		if !ok {
			t.Skip()
		}
		lanes := shapeLanes[int(o0^s0^int8(modDisp))&7%len(shapeLanes)]
		checkShape(t, d, lanes)
	})
}
