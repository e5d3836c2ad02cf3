// Package arch holds machine-wide constants and small shared types used by
// the descriptor model, the ISA, the memory hierarchy, the streaming engine
// and the out-of-order core. Keeping them in one leaf package avoids import
// cycles between the larger subsystems.
package arch

import "fmt"

// LineSize is the cache line size in bytes, shared by every cache level and
// by the streaming engine's request coalescing logic.
const LineSize = 64

// LineMask masks a byte address down to its cache line base.
const LineMask = ^uint64(LineSize - 1)

// PageSize is the virtual memory page size in bytes.
const PageSize = 4096

// MaxVecBytes is the architected vector register width in bytes used by the
// evaluation (512-bit vectors, as in the paper's Table I). The UVE ISA itself
// is vector-length agnostic; this is the implementation's choice.
const MaxVecBytes = 64

// ElemWidth is the width in bytes of a vector element or stream element.
type ElemWidth int

// Element widths supported by UVE (byte, half-word, word, double-word).
const (
	W1 ElemWidth = 1
	W2 ElemWidth = 2
	W4 ElemWidth = 4
	W8 ElemWidth = 8
)

// Valid reports whether w is one of the architected element widths.
func (w ElemWidth) Valid() bool {
	switch w {
	case W1, W2, W4, W8:
		return true
	}
	return false
}

func (w ElemWidth) String() string {
	switch w {
	case W1:
		return "b"
	case W2:
		return "h"
	case W4:
		return "w"
	case W8:
		return "d"
	}
	return fmt.Sprintf("ElemWidth(%d)", int(w))
}

// CacheLevel selects which level of the memory hierarchy a stream is
// configured to operate over (the paper's so.cfg.memx mechanism, §III-B
// "Advanced control" and §IV-A "Cache Access").
type CacheLevel int

const (
	// LevelL1 streams from/to the L1 data cache.
	LevelL1 CacheLevel = iota
	// LevelL2 streams from/to the unified L2, bypassing (non-cacheable in)
	// the L1. This is the paper's default.
	LevelL2
	// LevelMem streams directly from/to DRAM, bypassing all caches.
	LevelMem
)

func (l CacheLevel) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "DRAM"
	}
	return fmt.Sprintf("CacheLevel(%d)", int(l))
}

// LanesFor returns the number of vector lanes a register of vecBytes bytes
// holds for elements of width w.
func LanesFor(vecBytes int, w ElemWidth) int {
	if !w.Valid() || vecBytes <= 0 {
		return 0
	}
	return vecBytes / int(w)
}

// LineOf returns the cache-line base address containing addr.
func LineOf(addr uint64) uint64 { return addr & LineMask }

// SamePage reports whether two byte addresses fall on the same virtual page.
func SamePage(a, b uint64) bool { return a/PageSize == b/PageSize }

// Enqueue appends v to q, a FIFO whose consumer dequeues by reslicing
// (q = q[1:]) and so slides through its backing array buf. When the window
// reaches the end of its array it moves back to the front of buf instead of
// growing, so a queue that stays within half of len(buf) never reallocates
// (one that outgrows that falls back to append's growth). The cycle-level
// units keep their hardware queues this way.
func Enqueue[T any](q, buf []T, v T) []T {
	if len(q) == cap(q) && 2*len(q) <= len(buf) {
		q = buf[:copy(buf, q)]
	}
	return append(q, v)
}
