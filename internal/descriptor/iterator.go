package descriptor

import (
	"maps"
	"math"

	"repro/internal/arch"
)

// OriginSource supplies values consumed by indirect modifiers. Both
// execution tiers use OriginReader; tests use SliceOrigin.
type OriginSource interface {
	// NextOrigin consumes and returns the next element of the given origin
	// stream. ok is false when the origin stream is exhausted.
	NextOrigin(stream int) (v uint64, ok bool)
}

// Elem is one generated stream element.
type Elem struct {
	// Addr is the element's byte address.
	Addr uint64
	// End has bit k set when this element completes the current run of
	// hierarchy level k. Bit 0 therefore marks the end of an innermost
	// (dimension 0) sweep — the boundary vector chunks never cross.
	End uint16
	// Last marks the final element of the whole stream.
	Last bool
}

// EndsDim reports whether the element completes the current run of level k.
func (e Elem) EndsDim(k int) bool { return e.End&(1<<uint(k)) != 0 }

// ClosesChunk is the Stream Processing Modules' packing rule (paper §IV-B):
// el, joining a chunk as its n-th element, closes the chunk when the chunk
// then holds lanes elements or el ends a dimension-0 run.
func ClosesChunk(n, lanes int, el Elem) bool { return n >= lanes || el.EndsDim(0) }

// Chunk is one vector register's worth of consecutive elements, packed
// under ClosesChunk: a FIFO chunk of the streaming engine.
type Chunk struct {
	Addrs []uint64
	// End and Last are the closing element's flags.
	End  uint16
	Last bool
}

// Iterator walks a descriptor's exact address sequence one element at a
// time, the way a Stream Processing Module's Descriptor Iterator does
// (paper Fig 7.B). It runs one element ahead internally so that every
// returned element carries its end-of-dimension flags.
type Iterator struct {
	desc  *Descriptor
	src   OriginSource
	base  int64
	width int64
	n     int // hierarchy levels, including virtual indirect levels

	orig []Dim // parameters as configured
	cur  []Dim // parameters after modifier applications
	idx  []int64

	statics []staticState

	started bool
	done    bool
	pending Elem
	carry   uint16
	emitted int64
}

type staticState struct {
	mod     StaticMod
	applied int64
}

// NewIterator builds an iterator over d. src may be nil when the descriptor
// has no indirect modifiers.
func NewIterator(d *Descriptor, src OriginSource) *Iterator {
	it := &Iterator{
		desc:  d,
		src:   src,
		base:  int64(d.Base),
		width: int64(d.Width),
		n:     d.Levels(),
		orig:  append([]Dim(nil), d.Dims...),
		cur:   append([]Dim(nil), d.Dims...),
	}
	it.idx = make([]int64, it.n)
	it.statics = make([]staticState, len(d.Static))
	for i, m := range d.Static {
		it.statics[i] = staticState{mod: m}
	}
	return it
}

// Clone returns an independent copy of the iterator state. The origin source
// is shared; callers that need origin replay must snapshot it separately.
func (it *Iterator) Clone() *Iterator {
	c := *it
	c.orig = append([]Dim(nil), it.orig...)
	c.cur = append([]Dim(nil), it.cur...)
	c.idx = append([]int64(nil), it.idx...)
	c.statics = append([]staticState(nil), it.statics...)
	return &c
}

// Done reports whether the sequence is exhausted.
func (it *Iterator) Done() bool { return it.done }

// Emitted returns how many elements have been produced so far.
func (it *Iterator) Emitted() int64 { return it.emitted }

// Next produces the next element of the sequence.
func (it *Iterator) Next() (Elem, bool) {
	if it.done {
		return Elem{}, false
	}
	if !it.started {
		it.started = true
		it.carry = 0
		if !it.enterFrom(it.n - 1) {
			it.done = true
			return Elem{}, false
		}
		it.pending = it.current()
	}
	out := it.pending
	it.carry = 0
	if it.stepFrom(0) {
		it.pending = it.current()
		out.End = it.carry
	} else {
		it.done = true
		out.End = it.allMask()
		out.Last = true
	}
	it.emitted++
	return out, true
}

// NextChunk packs the next elements into c, reusing c.Addrs' storage, and
// reports false when the sequence is exhausted. The final element's End
// has every level's bit set, bit 0 included, so it always closes its
// chunk: the sequence never ends inside an open chunk.
func (it *Iterator) NextChunk(lanes int, c *Chunk) bool {
	c.Addrs = c.Addrs[:0]
	for {
		el, ok := it.Next()
		if !ok {
			return false
		}
		c.Addrs = append(c.Addrs, el.Addr)
		if ClosesChunk(len(c.Addrs), lanes, el) {
			c.End, c.Last = el.End, el.Last
			return true
		}
	}
}

func (it *Iterator) allMask() uint16 { return uint16(1)<<uint(it.n) - 1 }

// count returns the iteration count of a hierarchy level. Virtual levels
// (indirect modifiers beyond the last real dimension) are bounded only by
// their origin stream.
func (it *Iterator) count(lvl int) int64 {
	if lvl < len(it.cur) {
		return it.cur[lvl].Size
	}
	return math.MaxInt64
}

// enterFrom starts a fresh run of levels k..0. It returns false when the
// whole sequence is exhausted.
func (it *Iterator) enterFrom(k int) bool {
	for lvl := k; lvl >= 0; lvl-- {
		it.idx[lvl] = 0
		if it.count(lvl) <= 0 || !it.enterIteration(lvl) {
			// Empty run (zero size, or origin stream dry): the enclosing
			// level must advance instead.
			return it.stepFrom(lvl + 1)
		}
	}
	return true
}

// stepFrom advances the odometer starting at the given level, recording a
// carry bit for every level whose run completes. It returns false when the
// outermost level overflows (sequence exhausted).
func (it *Iterator) stepFrom(start int) bool {
	for lvl := start; lvl < it.n; lvl++ {
		it.idx[lvl]++
		if it.idx[lvl] < it.count(lvl) && it.enterIteration(lvl) {
			return it.enterFrom(lvl - 1)
		}
		it.carry |= 1 << uint(lvl)
	}
	return false
}

// enterIteration fires the modifiers bound to lvl at the start of one of its
// iterations: static modifiers accumulate into the level below, indirect
// modifiers consume one origin value each and set the level below. It
// returns false when an indirect origin stream is exhausted, which ends the
// bound level's run (the paper: the target's size follows the origin's).
func (it *Iterator) enterIteration(lvl int) bool {
	for i := range it.statics {
		s := &it.statics[i]
		if s.mod.Bound != lvl {
			continue
		}
		if s.mod.Count > 0 && s.applied >= s.mod.Count {
			continue
		}
		s.applied++
		p := it.param(s.mod.Bound-1, s.mod.Target)
		if s.mod.Behav == Add {
			*p += s.mod.Disp
		} else {
			*p -= s.mod.Disp
		}
	}
	for _, m := range it.desc.Indirect {
		if m.Bound != lvl {
			continue
		}
		v, ok := it.src.NextOrigin(m.Origin)
		if !ok {
			return false
		}
		tdim := m.Bound - 1
		if tdim < 0 {
			tdim = 0 // per-element gather retargets dimension 0 itself
		}
		p := it.param(tdim, m.Target)
		o := it.origParam(tdim, m.Target)
		switch m.Behav {
		case SetAdd:
			*p = o + int64(v)
		case SetSub:
			*p = o - int64(v)
		case SetValue:
			*p = int64(v)
		}
	}
	return true
}

func (it *Iterator) param(dim int, t Target) *int64 {
	d := &it.cur[dim]
	switch t {
	case TargetOffset:
		return &d.Offset
	case TargetSize:
		return &d.Size
	default:
		return &d.Stride
	}
}

func (it *Iterator) origParam(dim int, t Target) int64 {
	d := it.orig[dim]
	switch t {
	case TargetOffset:
		return d.Offset
	case TargetSize:
		return d.Size
	default:
		return d.Stride
	}
}

// current computes the byte address for the present odometer position:
// base + (O0 + i0·S0 + Σk≥1 (Ok+ik)·Sk) · width.
func (it *Iterator) current() Elem {
	eidx := it.cur[0].Offset + it.idx[0]*it.cur[0].Stride
	for k := 1; k < len(it.cur); k++ {
		eidx += (it.cur[k].Offset + it.idx[k]) * it.cur[k].Stride
	}
	return Elem{Addr: uint64(it.base + eidx*it.width)}
}

// Sequence materializes the full element sequence of d. Intended for tests
// and tooling; the streaming engine always iterates incrementally.
func Sequence(d *Descriptor, src OriginSource) []Elem {
	it := NewIterator(d, src)
	var out []Elem
	for {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// Addresses materializes just the byte addresses of d's sequence.
func Addresses(d *Descriptor, src OriginSource) []uint64 {
	elems := Sequence(d, src)
	out := make([]uint64, len(elems))
	for i, e := range elems {
		out[i] = e.Addr
	}
	return out
}

// SliceOrigin is an OriginSource backed by in-memory value slices, keyed by
// origin stream number.
type SliceOrigin struct {
	Values map[int][]uint64
	pos    map[int]int
}

// NewSliceOrigin builds a SliceOrigin over the given per-stream values.
// The map is cloned so the origin's replay state cannot be changed by a
// caller mutating its own map afterwards.
func NewSliceOrigin(values map[int][]uint64) *SliceOrigin {
	return &SliceOrigin{Values: maps.Clone(values), pos: make(map[int]int)}
}

// NextOrigin implements OriginSource.
func (s *SliceOrigin) NextOrigin(stream int) (uint64, bool) {
	vs := s.Values[stream]
	p := s.pos[stream]
	if p >= len(vs) {
		return 0, false
	}
	s.pos[stream] = p + 1
	return vs[p], true
}

// OriginReader is the OriginSource of an indirect stream's generation: each
// origin's values come from a separate walk of that origin's own
// descriptor, read from memory through read, so generation never waits on
// the origin stream's delivery. It counts the values each origin supplied.
type OriginReader struct {
	read   func(addr uint64, w arch.ElemWidth) uint64
	us     []int
	its    []*Iterator
	counts []int64
}

// NewOriginReader returns a reader with no origins that reads memory
// through read.
func NewOriginReader(read func(addr uint64, w arch.ElemWidth) uint64) *OriginReader {
	return &OriginReader{read: read}
}

// Add registers origin stream u, whose values d describes. Origins are
// numbered in the order they are added.
func (r *OriginReader) Add(u int, d *Descriptor) {
	r.us = append(r.us, u)
	r.its = append(r.its, NewIterator(d, nil))
	r.counts = append(r.counts, 0)
}

// Rewind restarts every origin at its first value and zeroes the counts.
func (r *OriginReader) Rewind() {
	for i, it := range r.its {
		r.its[i] = NewIterator(it.desc, nil)
		r.counts[i] = 0
	}
}

// Counts returns how many values each origin, in Add order, has supplied
// since the last Rewind. The slice is the reader's own.
func (r *OriginReader) Counts() []int64 { return r.counts }

// NextOrigin implements OriginSource. Of several origins registered under
// one stream, the first supplies the values.
func (r *OriginReader) NextOrigin(u int) (uint64, bool) {
	for i, ou := range r.us {
		if ou != u {
			continue
		}
		el, ok := r.its[i].Next()
		if !ok {
			return 0, false
		}
		r.counts[i]++
		return r.read(el.Addr, r.its[i].desc.Width), true
	}
	return 0, false
}
