package mem

import "repro/internal/arch"

// StridePrefetcher is the per-PC stride prefetcher attached to the
// baseline's L1-D (Table I: "Stride Prefetcher with depth 16"). On a
// confirmed stride it prefetches up to Depth strides ahead, ramping the
// distance as confidence grows.
type StridePrefetcher struct {
	Depth  int
	Degree int // prefetches issued per triggering access

	table map[int]*strideEntry
	out   []uint64 // OnAccess's result, reused across calls
}

type strideEntry struct {
	lastLine uint64
	stride   int64
	conf     int
	dist     int64
}

// NewStridePrefetcher builds a stride prefetcher of the given depth.
func NewStridePrefetcher(depth int) *StridePrefetcher {
	return &StridePrefetcher{Depth: depth, Degree: 2, table: make(map[int]*strideEntry)}
}

// OnAccess implements Prefetcher.
func (p *StridePrefetcher) OnAccess(now int64, line uint64, pc int, hit bool) []uint64 {
	e, ok := p.table[pc]
	if !ok {
		if len(p.table) > 256 {
			p.table = make(map[int]*strideEntry) // crude capacity bound
		}
		p.table[pc] = &strideEntry{lastLine: line}
		return nil
	}
	stride := int64(line) - int64(e.lastLine)
	if line == e.lastLine {
		return nil // same-line re-reference carries no stride signal
	}
	if stride == e.stride && stride != 0 {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
		e.dist = 0
	}
	e.lastLine = line
	if e.conf < 2 {
		return nil
	}
	// Ramp the prefetch distance up to Depth strides ahead.
	out := p.out[:0]
	for i := 0; i < p.Degree; i++ {
		if e.dist < int64(p.Depth) {
			e.dist++
		}
		target := int64(line) + e.stride*e.dist
		if target > 0 {
			out = append(out, uint64(target))
		}
	}
	p.out = out
	return out
}

// AMPMPrefetcher approximates the Access Map Pattern Matching prefetcher of
// Ishii et al. attached to the baseline's L2 (Table I). Memory is divided
// into zones; each zone keeps a bitmap of demand-accessed lines, and on each
// access candidate strides k are tested: if lines -k and -2k were accessed,
// line +k matches the pattern and is prefetched.
type AMPMPrefetcher struct {
	ZoneLines int // lines per access map zone
	MaxStride int
	Degree    int
	zones     map[uint64][]bool
	zoneOrder []uint64 // oldest first; window into zoneBuf (see arch.Enqueue)
	zoneBuf   []uint64
	maxZones  int
	out       []uint64 // OnAccess's result, reused across calls
}

// NewAMPMPrefetcher builds an AMPM prefetcher with 4 KB zones.
func NewAMPMPrefetcher() *AMPMPrefetcher {
	return &AMPMPrefetcher{
		ZoneLines: arch.PageSize / arch.LineSize,
		MaxStride: 16,
		Degree:    2,
		zones:     make(map[uint64][]bool),
		zoneBuf:   make([]uint64, 2*64),
		maxZones:  64,
	}
}

// OnAccess implements Prefetcher.
func (p *AMPMPrefetcher) OnAccess(now int64, line uint64, pc int, hit bool) []uint64 {
	lineNo := line / arch.LineSize
	zone := lineNo / uint64(p.ZoneLines)
	idx := int(lineNo % uint64(p.ZoneLines))
	zm, ok := p.zones[zone]
	if !ok {
		if len(p.zoneOrder) >= p.maxZones {
			// The new zone takes over the evicted zone's bitmap.
			oldest := p.zoneOrder[0]
			p.zoneOrder = p.zoneOrder[1:]
			zm = p.zones[oldest]
			clear(zm)
			delete(p.zones, oldest)
		} else {
			zm = make([]bool, p.ZoneLines)
		}
		p.zones[zone] = zm
		p.zoneOrder = arch.Enqueue(p.zoneOrder, p.zoneBuf, zone)
	}
	zm[idx] = true

	p.out = p.out[:0]
	emit := func(k int) bool {
		t := idx + k
		if t < 0 || t >= p.ZoneLines || zm[t] {
			return false
		}
		p.out = append(p.out, (zone*uint64(p.ZoneLines)+uint64(t))*arch.LineSize)
		return len(p.out) >= p.Degree
	}
	test := func(k int) bool {
		a, b := idx-k, idx-2*k
		return a >= 0 && a < p.ZoneLines && b >= 0 && b < p.ZoneLines && zm[a] && zm[b]
	}
	for k := 1; k <= p.MaxStride; k++ {
		if test(k) && emit(k) {
			return p.out
		}
		if test(-k) && emit(-k) {
			return p.out
		}
	}
	return p.out
}
