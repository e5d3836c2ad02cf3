package descriptor

import "fmt"

// This file implements the symbolic footprint abstraction used by the
// inter-stream dependence analyzer. A Footprint summarizes a descriptor's
// element address sequence at three precision tiers:
//
//   - exact: an ordered list of arithmetic runs (Span) that reproduces the
//     sequence element-for-element, built symbolically for modifier-free
//     descriptors and by budgeted enumeration for static-modifier ones;
//   - hull-only: just the [Min, Max] byte hull, when the exact decomposition
//     would exceed the span or enumeration budget (overlap queries against a
//     hull-only footprint answer disjoint or unknown, never overlapping);
//   - ⊤ (Top): nothing is known — indirect modifiers make the addresses
//     data-dependent, so any query answers unknown.
//
// Addresses are carried as signed byte offsets (int64): simulated memory
// sits far below 2^63 and signed arithmetic keeps the interval algebra free
// of wraparound case analysis.

// Span is one arithmetic run of element start addresses: Base, Base+Stride,
// ..., Base+(Trip-1)·Stride, in sequence order. Stride keeps its sign — the
// run is never normalized, because position queries depend on the order the
// elements are produced in. A single-element span has Stride 0.
type Span struct {
	Base   int64
	Stride int64
	Trip   int64
}

func (s Span) String() string {
	if s.Trip == 1 {
		return fmt.Sprintf("{%#x}", s.Base)
	}
	return fmt.Sprintf("{%#x,%+d,×%d}", s.Base, s.Stride, s.Trip)
}

// last returns the start address of the final element of the run.
func (s Span) last() int64 { return s.Base + (s.Trip-1)*s.Stride }

// hull returns the inclusive range [lo, hi] of element start addresses.
func (s Span) hull() (lo, hi int64) {
	lo, hi = s.Base, s.last()
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// firstIdx returns the smallest j in [0, Trip) with Base+j·Stride inside the
// open interval (lo, hi), i.e. the first element of the run whose start
// address falls in the interval; ok is false when none does.
func (s Span) firstIdx(lo, hi int64) (int64, bool) {
	if lo >= hi {
		return 0, false
	}
	if s.Stride == 0 {
		if s.Base > lo && s.Base < hi {
			return 0, true
		}
		return 0, false
	}
	var j int64
	if s.Stride > 0 {
		j = floorDiv(lo-s.Base, s.Stride) + 1 // first j with value > lo
	} else {
		j = floorDiv(s.Base-hi, -s.Stride) + 1 // first j with value < hi
	}
	if j < 0 {
		j = 0
	}
	if j >= s.Trip {
		return 0, false
	}
	if v := s.Base + j*s.Stride; v > lo && v < hi {
		return j, true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Footprint is the symbolic memory footprint of one stream descriptor.
type Footprint struct {
	// Top marks the ⊤ element: nothing is known about the addresses.
	Top bool
	// Reason explains a Top or hull-only footprint for diagnostics.
	Reason string
	// Width is the element width in bytes; each element covers
	// [addr, addr+Width).
	Width int64
	// Min and Max bound the element start addresses (valid when !Top and
	// Elems > 0).
	Min, Max int64
	// Elems is the total element count (valid when !Top).
	Elems int64
	// Spans is the exact sequence decomposition, nil for hull-only
	// footprints.
	Spans []Span
	// cum[i] is the sequence position of Spans[i]'s first element.
	cum []int64
}

// Budgets bounding footprint construction and overlap queries. Exceeding a
// budget degrades precision (hull-only or ⊤, and unknown overlap verdicts),
// never correctness.
const (
	// DefaultFootprintElems caps enumeration of static-modifier descriptors.
	DefaultFootprintElems = 1 << 21
	// maxFootprintSpans caps the exact decomposition's length.
	maxFootprintSpans = 1 << 14
	// defaultRelateBudget caps per-query element probes in Relate.
	defaultRelateBudget = 1 << 22
)

// Exact reports whether the footprint reproduces the sequence exactly.
func (f *Footprint) Exact() bool { return !f.Top && f.Spans != nil }

// Empty reports whether the stream provably touches no memory.
func (f *Footprint) Empty() bool { return !f.Top && f.Elems == 0 }

func (f *Footprint) String() string {
	switch {
	case f.Top:
		return fmt.Sprintf("⊤ (%s)", f.Reason)
	case f.Elems == 0:
		return "∅"
	case f.Spans == nil:
		return fmt.Sprintf("hull [%#x, %#x]+%d (%s)", f.Min, f.Max, f.Width, f.Reason)
	default:
		s := fmt.Sprintf("%d elems ×%dB in %d spans", f.Elems, f.Width, len(f.Spans))
		if len(f.Spans) <= 4 {
			for _, sp := range f.Spans {
				s += " " + sp.String()
			}
		}
		return s
	}
}

// NewFootprint computes the footprint of d. maxElems bounds enumeration work
// for static-modifier descriptors (≤ 0 selects DefaultFootprintElems).
func NewFootprint(d *Descriptor, maxElems int64) *Footprint {
	if maxElems <= 0 {
		maxElems = DefaultFootprintElems
	}
	w := int64(d.Width)
	if d.HasIndirect() {
		return &Footprint{Top: true, Width: w,
			Reason: fmt.Sprintf("indirect modifier (origin u%d) makes the addresses data-dependent", d.Indirect[0].Origin)}
	}
	if len(d.Static) == 0 {
		return affineFootprint(d, maxElems)
	}
	return enumFootprint(d, maxElems)
}

// AffineHull returns the byte range [lo, hi] of a modifier-free
// descriptor's element start addresses. The address of element
// (i0, ..., in) is Base + (O0 + i0·S0 + Σk≥1 (Ok+ik)·Sk)·Width, so the hull
// follows per dimension from the stride signs, without enumeration. ok is
// false when d has a modifier or an empty dimension.
func (d *Descriptor) AffineHull() (lo, hi int64, ok bool) {
	if len(d.Static) > 0 || d.HasIndirect() || len(d.Dims) == 0 {
		return 0, 0, false
	}
	var eMin, eMax int64
	for k, dim := range d.Dims {
		if dim.Size <= 0 {
			return 0, 0, false
		}
		// Dimension 0 contributes O0 + i0·S0; dimensions k ≥ 1 (Ok+ik)·Sk.
		a, b := dim.Offset*dim.Stride, (dim.Offset+dim.Size-1)*dim.Stride
		if k == 0 {
			a, b = dim.Offset, dim.Offset+(dim.Size-1)*dim.Stride
		}
		eMin += min(a, b)
		eMax += max(a, b)
	}
	w := int64(d.Width)
	return int64(d.Base) + eMin*w, int64(d.Base) + eMax*w, true
}

// affineFootprint handles modifier-free descriptors symbolically: each
// combination of outer indices contributes one arithmetic run of
// dimension 0, and the byte hull is AffineHull's.
func affineFootprint(d *Descriptor, maxElems int64) *Footprint {
	w := int64(d.Width)
	f := &Footprint{Width: w}
	total := int64(1)
	combos := int64(1)
	for k, dim := range d.Dims {
		if dim.Size <= 0 {
			return f // provably empty
		}
		if total > maxElems/dim.Size {
			total = maxElems + 1 // clamp: only compared against budgets
		} else {
			total *= dim.Size
		}
		if k >= 1 {
			if combos > maxElems/dim.Size {
				combos = maxElems + 1
			} else {
				combos *= dim.Size
			}
		}
	}
	f.Elems = total
	f.Min, f.Max, _ = d.AffineHull()

	if combos > maxElems || combos > maxFootprintSpans*int64(len(d.Dims)+1) {
		f.Reason = fmt.Sprintf("%d outer-dimension combinations exceed the span budget", combos)
		return f // hull-only
	}

	// Walk the outer odometer in sequence order (dimension 1 fastest),
	// emitting one run per combination and coalescing adjacent runs.
	base := int64(d.Base)
	inner := d.Dims[0]
	outer := d.Dims[1:]
	idx := make([]int64, len(outer))
	spans := make([]Span, 0, 16)
	for {
		off := inner.Offset
		for k, dim := range outer {
			off += (dim.Offset + idx[k]) * dim.Stride
		}
		sp := Span{Base: base + off*w, Stride: inner.Stride * w, Trip: inner.Size}
		if sp.Trip == 1 {
			sp.Stride = 0
		}
		spans = appendRun(spans, sp)
		if len(spans) > maxFootprintSpans {
			f.Reason = "exact decomposition exceeds the span budget"
			return f // hull-only
		}
		k := 0
		for ; k < len(outer); k++ {
			idx[k]++
			if idx[k] < outer[k].Size {
				break
			}
			idx[k] = 0
		}
		if k == len(outer) {
			break
		}
	}
	f.Spans = spans
	f.finish()
	return f
}

// enumFootprint walks a static-modifier descriptor's exact sequence with the
// iterator, coalescing elements into runs as they stream past. Exceeding the
// element budget yields ⊤ — a partial hull would silently exclude the unseen
// tail.
func enumFootprint(d *Descriptor, maxElems int64) *Footprint {
	w := int64(d.Width)
	f := &Footprint{Width: w}
	it := NewIterator(d, nil)
	spans := make([]Span, 0, 16)
	hullOnly := false
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if f.Elems >= maxElems {
			return &Footprint{Top: true, Width: w,
				Reason: fmt.Sprintf("footprint exceeds the %d-element enumeration budget", maxElems)}
		}
		addr := int64(e.Addr)
		if f.Elems == 0 {
			f.Min, f.Max = addr, addr
		} else {
			if addr < f.Min {
				f.Min = addr
			}
			if addr > f.Max {
				f.Max = addr
			}
		}
		f.Elems++
		if !hullOnly {
			spans = appendRun(spans, Span{Base: addr, Trip: 1})
			if len(spans) > maxFootprintSpans {
				hullOnly = true
				f.Reason = "exact decomposition exceeds the span budget"
			}
		}
	}
	if !hullOnly {
		f.Spans = spans
		f.finish()
	}
	return f
}

// appendRun appends a run to the decomposition, greedily merging it into the
// previous run when the two continue one arithmetic sequence. The merge is a
// heuristic — a missed merge costs spans, never correctness.
func appendRun(spans []Span, s Span) []Span {
	if n := len(spans); n > 0 {
		p := &spans[n-1]
		switch {
		case p.Trip == 1 && s.Trip == 1:
			*p = Span{Base: p.Base, Stride: s.Base - p.Base, Trip: 2}
			return spans
		case p.Trip > 1 && s.Trip == 1 && s.Base == p.Base+p.Stride*p.Trip:
			p.Trip++
			return spans
		case p.Trip == 1 && s.Trip > 1 && s.Base-p.Base == s.Stride:
			*p = Span{Base: p.Base, Stride: s.Stride, Trip: s.Trip + 1}
			return spans
		case p.Trip > 1 && s.Trip > 1 && s.Stride == p.Stride && s.Base == p.Base+p.Stride*p.Trip:
			p.Trip += s.Trip
			return spans
		}
	}
	return append(spans, s)
}

// finish precomputes the cumulative sequence positions of each span.
func (f *Footprint) finish() {
	f.cum = make([]int64, len(f.Spans))
	pos := int64(0)
	for i, s := range f.Spans {
		f.cum[i] = pos
		pos += s.Trip
	}
	f.Elems = pos
}

// FirstPos returns the sequence position of the first element whose start
// address lies in the open interval (lo, hi); ok is false when no element
// does. Requires an exact footprint.
func (f *Footprint) FirstPos(lo, hi int64) (int64, bool) {
	for i, s := range f.Spans {
		if j, ok := s.firstIdx(lo, hi); ok {
			return f.cum[i] + j, true
		}
	}
	return 0, false
}

// EachElem calls fn for every element in sequence order with its position and
// start address, stopping early when fn returns false. It reports whether the
// footprint was exact (and the walk therefore complete or deliberately
// stopped).
func (f *Footprint) EachElem(fn func(pos, addr int64) bool) bool {
	if !f.Exact() {
		return false
	}
	pos := int64(0)
	for _, s := range f.Spans {
		a := s.Base
		for j := int64(0); j < s.Trip; j++ {
			if !fn(pos, a) {
				return true
			}
			pos++
			a += s.Stride
		}
	}
	return true
}

// SameSequence reports whether two exact footprints produce the identical
// element sequence (same addresses in the same order, same width).
func (f *Footprint) SameSequence(g *Footprint) bool {
	if !f.Exact() || !g.Exact() || f.Width != g.Width || f.Elems != g.Elems || len(f.Spans) != len(g.Spans) {
		return false
	}
	for i := range f.Spans {
		if f.Spans[i] != g.Spans[i] {
			return false
		}
	}
	return true
}

// Overlap is the three-valued answer of a footprint intersection query.
type Overlap int

const (
	// OverlapUnknown means the query could not be decided (⊤, hull-only
	// with intersecting hulls, or budget exhaustion).
	OverlapUnknown Overlap = iota
	// OverlapDisjoint means the byte footprints provably never intersect.
	OverlapDisjoint
	// OverlapYes means some element byte ranges provably intersect.
	OverlapYes
)

func (o Overlap) String() string {
	switch o {
	case OverlapDisjoint:
		return "disjoint"
	case OverlapYes:
		return "overlapping"
	}
	return "unknown"
}

// Relate classifies the byte-interval overlap of two footprints. budget caps
// the number of element probes (≤ 0 selects a default); exhausting it
// degrades the answer to unknown.
func Relate(a, b *Footprint, budget int64) Overlap {
	if a.Empty() || b.Empty() {
		return OverlapDisjoint
	}
	if a.Top || b.Top {
		return OverlapUnknown
	}
	if a.Max+a.Width <= b.Min || b.Max+b.Width <= a.Min {
		return OverlapDisjoint
	}
	if a.Spans == nil || b.Spans == nil {
		return OverlapUnknown
	}
	if budget <= 0 {
		budget = defaultRelateBudget
	}
	for _, sa := range a.Spans {
		alo, ahi := sa.hull()
		for _, sb := range b.Spans {
			blo, bhi := sb.hull()
			if ahi+a.Width <= blo || bhi+b.Width <= alo {
				continue
			}
			hit, cost := spanOverlap(sa, a.Width, sb, b.Width, budget)
			if cost < 0 {
				return OverlapUnknown
			}
			budget -= cost
			if hit {
				return OverlapYes
			}
		}
	}
	return OverlapDisjoint
}

// spanOverlap probes whether any element of one span byte-overlaps any
// element of the other, iterating the shorter run and solving the other in
// O(1) per probe. cost is the probes spent, or -1 when it would exceed
// budget.
func spanOverlap(sa Span, wa int64, sb Span, wb int64, budget int64) (bool, int64) {
	if sa.Trip > sb.Trip {
		return spanOverlap(sb, wb, sa, wa, budget)
	}
	if sa.Trip > budget {
		return false, -1
	}
	a := sa.Base
	for j := int64(0); j < sa.Trip; j++ {
		// Element [a, a+wa) intersects [x, x+wb) iff x ∈ (a-wb, a+wa).
		if _, ok := sb.firstIdx(a-wb, a+wa); ok {
			return true, j + 1
		}
		a += sa.Stride
	}
	return false, sa.Trip
}

// RelateRange classifies the overlap of the footprint with the byte range
// [lo, hi) — the shape of a scalar memory access.
func (f *Footprint) RelateRange(lo, hi int64) Overlap {
	if hi <= lo || f.Empty() {
		return OverlapDisjoint
	}
	if f.Top {
		return OverlapUnknown
	}
	if f.Max+f.Width <= lo || hi <= f.Min {
		return OverlapDisjoint
	}
	if f.Spans == nil {
		return OverlapUnknown
	}
	for _, s := range f.Spans {
		if _, ok := s.firstIdx(lo-f.Width, hi); ok {
			return OverlapYes
		}
	}
	return OverlapDisjoint
}
