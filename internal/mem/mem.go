// Package mem implements the simulated memory system: the functional
// backing store with virtual-memory bookkeeping, a two-level MOESI cache
// hierarchy with MSHRs, the baseline's stride and AMPM hardware prefetchers
// (paper Table I), and a dual-channel DDR3-1600-class DRAM model whose bus
// utilization statistic feeds Fig 8.D.
//
// Timing and function are decoupled: the caches and DRAM model track tags,
// states and latencies only, while data lives in the flat backing store.
// This keeps the single-core model exact while making every structural
// limit (MSHRs, queues, bandwidth) explicit.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/arch"
)

// Memory is the functional backing store. Addresses are identity-mapped
// (virtual == physical) for mapped pages; accesses to unmapped pages still
// return data (zero-filled growth) so that wrong-path speculative accesses
// are harmless, but translation through the TLB reports the fault.
type Memory struct {
	base    uint64
	data    []byte
	mapped  map[uint64]bool // page number → mapped
	brk     uint64          // allocation cursor
	extents []Extent        // Alloc history, in address order
}

// Extent records one allocated region: [Base, Base+Size).
type Extent struct {
	Base uint64
	Size int64
}

// Contains reports whether [addr, addr+n) lies inside the extent.
func (e Extent) Contains(addr uint64, n int64) bool {
	return addr >= e.Base && addr+uint64(n) <= e.Base+uint64(e.Size)
}

// NewMemory creates a backing store; allocations start at a fixed base so
// address 0 stays invalid.
func NewMemory() *Memory {
	const base = 0x10000
	return &Memory{base: base, brk: base, mapped: make(map[uint64]bool)}
}

func (m *Memory) ensure(addr uint64, size int) {
	end := addr + uint64(size)
	if end < m.base {
		return
	}
	need := end - m.base
	if uint64(len(m.data)) < need {
		grown := make([]byte, need+(need>>2)+arch.PageSize)
		copy(grown, m.data)
		m.data = grown
	}
}

// Alloc reserves size bytes aligned to align, maps the covered pages, and
// returns the base address.
func (m *Memory) Alloc(size, align int) uint64 {
	if align < int(arch.W8) {
		align = int(arch.W8)
	}
	a := uint64(align)
	addr := (m.brk + a - 1) / a * a
	m.brk = addr + uint64(size)
	m.ensure(addr, size)
	for p := addr / arch.PageSize; p <= (addr+uint64(size)-1)/arch.PageSize; p++ {
		m.mapped[p] = true
	}
	m.extents = append(m.extents, Extent{Base: addr, Size: int64(size)})
	return addr
}

// Extents returns the allocation history in address order — the declared
// buffer footprint a static verifier checks stream descriptors against.
func (m *Memory) Extents() []Extent {
	return append([]Extent(nil), m.extents...)
}

// Bytes returns the extent's current content. The slice aliases the
// backing store until the next allocation; callers must not modify it.
func (m *Memory) Bytes(e Extent) []byte {
	off := e.Base - m.base
	return m.data[off : off+uint64(e.Size)]
}

// HashExtents fingerprints the content of every allocated extent with
// FNV-1a — the architectural-state digest the resilience oracle compares
// between faulted and fault-free runs.
func (m *Memory) HashExtents() uint64 {
	h := fnv.New64a()
	for _, e := range m.extents {
		h.Write(m.Bytes(e))
	}
	return h.Sum64()
}

// MapPage marks the page containing addr as mapped (used by the page-fault
// handler path in tests and by the OS model).
func (m *Memory) MapPage(addr uint64) { m.mapped[addr/arch.PageSize] = true }

// UnmapPage removes the mapping of the page containing addr.
func (m *Memory) UnmapPage(addr uint64) { delete(m.mapped, addr/arch.PageSize) }

// Mapped reports whether the page containing addr is mapped.
func (m *Memory) Mapped(addr uint64) bool { return m.mapped[addr/arch.PageSize] }

// Read returns the w-byte value at addr, zero-extended.
func (m *Memory) Read(addr uint64, w arch.ElemWidth) uint64 {
	m.ensure(addr, int(w))
	if addr < m.base {
		return 0
	}
	off := addr - m.base
	switch w {
	case arch.W1:
		return uint64(m.data[off])
	case arch.W2:
		return uint64(binary.LittleEndian.Uint16(m.data[off:]))
	case arch.W4:
		return uint64(binary.LittleEndian.Uint32(m.data[off:]))
	default:
		return binary.LittleEndian.Uint64(m.data[off:])
	}
}

// Write stores the low 8·w bits of v at addr.
func (m *Memory) Write(addr uint64, w arch.ElemWidth, v uint64) {
	m.ensure(addr, int(w))
	if addr < m.base {
		return
	}
	off := addr - m.base
	switch w {
	case arch.W1:
		m.data[off] = byte(v)
	case arch.W2:
		binary.LittleEndian.PutUint16(m.data[off:], uint16(v))
	case arch.W4:
		binary.LittleEndian.PutUint32(m.data[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.data[off:], v)
	}
}

// ReadFloat reads a float of width w from addr.
func (m *Memory) ReadFloat(addr uint64, w arch.ElemWidth) float64 {
	bits := m.Read(addr, w)
	if w == arch.W4 {
		return float64(f32FromBits(uint32(bits)))
	}
	return f64FromBits(bits)
}

// WriteFloat stores a float of width w at addr.
func (m *Memory) WriteFloat(addr uint64, w arch.ElemWidth, f float64) {
	if w == arch.W4 {
		m.Write(addr, w, uint64(f32Bits(float32(f))))
		return
	}
	m.Write(addr, w, f64Bits(f))
}

// TLB models address translation. Mapped pages translate identity; unmapped
// pages fault. A small fully-associative buffer caches translations, and
// misses cost a fixed page-walk penalty charged to the requesting access.
type TLB struct {
	mem      *Memory
	entries  map[uint64]bool // cached page numbers
	order    []uint64        // FIFO replacement; window into orderBuf (see arch.Enqueue)
	orderBuf []uint64
	size     int

	WalkPenalty int // cycles added on a TLB miss

	// Inject, when non-nil, is consulted on every translation; returning
	// true forces the access to report a page fault regardless of the page
	// table (deterministic fault injection). The forced fault takes the
	// real recovery path — precise squash at commit, page mapping, TLB
	// flush — so architectural state is unaffected.
	Inject func(addr uint64) bool

	Hits, Misses, Faults uint64
}

// NewTLB builds a TLB of the given entry count over m's page table.
func NewTLB(m *Memory, size int) *TLB {
	return &TLB{mem: m, entries: make(map[uint64]bool), orderBuf: make([]uint64, 2*size), size: size, WalkPenalty: 20}
}

// Translate resolves addr. It returns the extra latency in cycles (0 on a
// TLB hit) and whether the page is mapped; fault=true means a page fault
// that must surface as a precise exception at commit (paper §IV-A).
func (t *TLB) Translate(addr uint64) (extraLat int, fault bool) {
	if t.Inject != nil && t.Inject(addr) {
		t.Misses++
		t.Faults++
		return t.WalkPenalty, true
	}
	page := addr / arch.PageSize
	if t.entries[page] {
		t.Hits++
		return 0, false
	}
	t.Misses++
	if !t.mem.Mapped(addr) {
		t.Faults++
		return t.WalkPenalty, true
	}
	if len(t.order) >= t.size {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, oldest)
	}
	t.entries[page] = true
	t.order = arch.Enqueue(t.order, t.orderBuf, page)
	return t.WalkPenalty, false
}

// Flush empties the TLB (context switches, new mappings).
func (t *TLB) Flush() {
	clear(t.entries)
	t.order = t.order[:0]
}

func (t *TLB) String() string {
	return fmt.Sprintf("TLB{%d entries, %d hits, %d misses, %d faults}", len(t.entries), t.Hits, t.Misses, t.Faults)
}
