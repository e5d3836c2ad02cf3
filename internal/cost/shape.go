package cost

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// Default budgets. The walk budget caps the symbolic enumeration per stream
// instance; the line budget caps the explicit unique-line set. Beyond them
// the analyzer degrades to intervals, never to a guess.
const (
	DefaultWalkElems = int64(1) << 22
	DefaultLineSet   = int64(1) << 21
)

// streamWork is the statically derived work of one stream instance: the
// chunk structure the core observes (counts and end-of-dimension flags) and
// the address-derived line quantities the engine's generator produces.
type streamWork struct {
	desc  *descriptor.Descriptor
	lanes int

	// Counts. Exact when exact is true; otherwise elems..dimBounds hold the
	// interval lower ends and hi the (possibly Unbounded) upper end.
	exact     bool
	elems     int64
	chunks    int64
	dimBounds int64 // committed chunks with End!=0 && !Last
	hi        uint64
	note      string

	// Chunk structure for the interpreter; nil when counts are inexact.
	flagAt func(i int64) (end uint16, last bool)
	nAt    func(i int64) int64
	// prefix returns elems and dim boundaries over the first c chunks.
	prefix func(c int64) (elems, dimBounds int64)

	// Address-derived quantities, valid when addrExact is true.
	addrExact  bool
	lineReqs   int64 // loads: maximal consecutive same-line segments, whole sequence
	segs       int64 // loads: within-chunk same-line segments (generator steps sans dim switches)
	storeLines int64 // stores: per-chunk unique line count
	lines      []uint64
	addrNote   string

	// originUsed maps origin stream -> values one full generation consumes.
	originUsed map[int]int64
}

// zeroSource feeds zero origin values, bounded by each origin stream's
// statically known element count. With no Size-target indirection the chunk
// structure is independent of origin values, so the walk's counts are exact.
type zeroSource struct {
	avail map[int]int64
	used  map[int]int64
}

func (z *zeroSource) NextOrigin(u int) (uint64, bool) {
	if z.avail[u] <= 0 {
		return 0, false
	}
	z.avail[u]--
	z.used[u]++
	return 0, true
}

func opaqueWork(d *descriptor.Descriptor, lanes int, note string) *streamWork {
	return &streamWork{desc: d, lanes: lanes, hi: Unbounded, note: note}
}

// computeWork derives a stream instance's work from its descriptor by a
// budgeted symbolic walk of the descriptor iterator. A pure affine pattern
// too long to walk gets its counts in closed form instead, and its line
// quantities stay unknown. originElems carries each origin stream's exact
// element count; a missing entry means the origin's count is itself
// inexact.
func computeWork(d *descriptor.Descriptor, lanes int, originElems map[int]int64, walkBudget int64) *streamWork {
	if lanes <= 0 {
		return opaqueWork(d, lanes, "non-positive lane count")
	}
	for _, m := range d.Indirect {
		if m.Target == descriptor.TargetSize {
			return opaqueWork(d, lanes, "indirect modifier retargets a dimension size: element count depends on origin data")
		}
	}
	if d.HasIndirect() {
		for _, ou := range d.Origins() {
			if _, ok := originElems[ou]; !ok {
				return opaqueWork(d, lanes, fmt.Sprintf("origin stream u%d has a data-dependent element count", ou))
			}
		}
	}
	if len(d.Static) == 0 && !d.HasIndirect() {
		if w := affineWork(d, lanes); w != nil && w.elems > walkBudget {
			w.addrNote = fmt.Sprintf("address walk exceeds the %d-element budget", walkBudget)
			return w
		}
	}
	return walkWork(d, lanes, originElems, walkBudget)
}

// affineWork computes a pure affine descriptor's counts and chunk structure
// in closed form: elems = Π sizes, one run per outer odometer position,
// boundaries at run ends. It restates descriptor.ClosesChunk for this
// shape; the tests check it against the walk. Returns nil when the products
// overflow the budget arithmetic (callers fall back to the walk, which will
// degrade cleanly).
func affineWork(d *descriptor.Descriptor, lanes int) *streamWork {
	w := &streamWork{desc: d, lanes: lanes, exact: true}
	sizes := make([]int64, len(d.Dims))
	for i, dim := range d.Dims {
		if dim.Size <= 0 {
			// Any empty dimension empties the whole sequence (the iterator
			// skips empty runs and immediately exhausts the enclosing level).
			w.flagAt = func(int64) (uint16, bool) { return 0, false }
			w.nAt = func(int64) int64 { return 0 }
			w.prefix = func(int64) (int64, int64) { return 0, 0 }
			w.addrExact = true
			return w
		}
		sizes[i] = dim.Size
	}
	size0 := sizes[0]
	cpr := (size0 + int64(lanes) - 1) / int64(lanes) // chunks per run
	lastN := size0 - (cpr-1)*int64(lanes)
	runs := int64(1)
	for _, s := range sizes[1:] {
		if runs > (int64(1)<<56)/s {
			return nil
		}
		runs *= s
	}
	if runs > (int64(1)<<56)/size0 {
		return nil
	}
	w.elems = runs * size0
	w.chunks = runs * cpr
	w.dimBounds = runs - 1
	w.hi = uint64(w.elems)
	chunks := w.chunks
	w.nAt = func(i int64) int64 {
		if i%cpr == cpr-1 {
			return lastN
		}
		return int64(lanes)
	}
	w.flagAt = func(i int64) (uint16, bool) {
		if i%cpr != cpr-1 {
			return 0, false
		}
		r := i / cpr
		end := uint16(1)
		for k := 1; k < len(sizes); k++ {
			if r%sizes[k] != sizes[k]-1 {
				break
			}
			end |= 1 << uint(k)
			r /= sizes[k]
		}
		return end, i == chunks-1
	}
	w.prefix = func(c int64) (int64, int64) {
		if c > chunks {
			c = chunks
		}
		full, rem := c/cpr, c%cpr
		el := full*size0 + rem*int64(lanes)
		db := full
		if db > runs-1 {
			db = runs - 1
		}
		return el, db
	}
	return w
}

// walkWork enumerates the descriptor under the walk budget, chunk by chunk
// as the engine's generator packs them (descriptor.NextChunk), and derives
// in the same pass the counts, the chunk structure and, for direct
// patterns, the generator's line quantities: coalesced line requests (a new
// request only when an element's line differs from the previous element's,
// persisting across chunks), within-chunk line segments, per-chunk unique
// store lines, and the unique line set.
func walkWork(d *descriptor.Descriptor, lanes int, originElems map[int]int64, walkBudget int64) *streamWork {
	w := &streamWork{desc: d, lanes: lanes}
	var src descriptor.OriginSource
	var zs *zeroSource
	if d.HasIndirect() {
		zs = &zeroSource{avail: map[int]int64{}, used: map[int]int64{}}
		for _, ou := range d.Origins() {
			zs.avail[ou] = originElems[ou]
		}
		src = zs
	}
	it := descriptor.NewIterator(d, src)
	type chunkMeta struct {
		n    int64
		end  uint16
		last bool
	}
	var metas []chunkMeta
	set := map[uint64]struct{}{}
	var lastLine uint64
	haveLast := false
	var c descriptor.Chunk
	var chunkLines []uint64 // the open chunk's distinct lines
	for it.NextChunk(lanes, &c) {
		if it.Emitted() > walkBudget {
			return opaqueWork(d, lanes, fmt.Sprintf("pattern exceeds the %d-element walk budget", walkBudget))
		}
		n := int64(len(c.Addrs))
		w.elems += n
		metas = append(metas, chunkMeta{n: n, end: c.End, last: c.Last})
		if c.End != 0 && !c.Last {
			w.dimBounds++
		}
		if zs != nil {
			continue
		}
		chunkLines = chunkLines[:0]
		for i, a := range c.Addrs {
			line := arch.LineOf(a)
			if !haveLast || line != lastLine {
				w.lineReqs++
			}
			if i == 0 || line != lastLine {
				w.segs++
			}
			lastLine, haveLast = line, true
			if !slices.Contains(chunkLines, line) {
				chunkLines = append(chunkLines, line)
				w.storeLines++
			}
			if int64(len(set)) <= DefaultLineSet {
				set[line] = struct{}{}
			}
		}
	}
	w.exact = true
	w.chunks = int64(len(metas))
	w.hi = uint64(w.elems)
	w.flagAt = func(i int64) (uint16, bool) {
		if i < 0 || i >= int64(len(metas)) {
			return 0, false
		}
		return metas[i].end, metas[i].last
	}
	w.nAt = func(i int64) int64 {
		if i < 0 || i >= int64(len(metas)) {
			return 0
		}
		return metas[i].n
	}
	w.prefix = func(c int64) (int64, int64) {
		if c > int64(len(metas)) {
			c = int64(len(metas))
		}
		var el, db int64
		for i := int64(0); i < c; i++ {
			el += metas[i].n
			if metas[i].end != 0 && !metas[i].last {
				db++
			}
		}
		return el, db
	}
	switch {
	case zs != nil:
		w.originUsed = zs.used
		w.addrNote = "indirect addresses depend on origin data"
	case int64(len(set)) > DefaultLineSet:
		w.addrNote = fmt.Sprintf("unique-line set exceeds the %d-line budget", DefaultLineSet)
	default:
		w.addrExact = true
		w.lines = make([]uint64, 0, len(set))
		for l := range set {
			w.lines = append(w.lines, l)
		}
		sort.Slice(w.lines, func(i, j int) bool { return w.lines[i] < w.lines[j] })
	}
	return w
}

// genSteps lower-bounds the generator steps a stream instance needs: one per
// within-chunk line segment for loads (the generator pops one line per
// step), one per chunk for stores, plus one per dimension-boundary stall.
func (w *streamWork) genSteps() int64 {
	if !w.exact {
		return 0
	}
	if w.desc.Kind == descriptor.Load && w.addrExact {
		return w.segs + w.dimBounds
	}
	return w.chunks + w.dimBounds
}
