package mem

import "repro/internal/arch"

// Req is one line-granular timing request flowing through the hierarchy.
// Functional data is not carried: it lives in the Memory backing store.
type Req struct {
	// Line is the line-aligned byte address.
	Line uint64
	// Write marks a store-side request (dirty allocation).
	Write bool
	// MinLevel is the first cache level allowed to allocate the line.
	// Levels above it treat the request as non-cacheable and forward it
	// (the paper's stream cache-level selection, §IV-A "Cache Access").
	MinLevel arch.CacheLevel
	// Prefetch marks prefetcher-generated requests: they allocate but do
	// not receive completion callbacks and are dropped under pressure.
	Prefetch bool
	// PC tags the requesting instruction for the stride prefetcher.
	PC int
	// Done, when non-nil, is invoked once the request completes (data
	// available for loads, line owned for stores).
	Done func(now int64)
}

// Port is anything that accepts timing requests: a cache level or DRAM.
type Port interface {
	// Access submits a request. It returns false when the component cannot
	// accept it this cycle (ports busy, MSHRs or queues full); the caller
	// must retry on a later cycle. Access keeps no pointer to r: whatever
	// it queues, it copies (it may keep r.Done until it calls it), so the
	// caller may reuse r as soon as Access returns.
	Access(now int64, r *Req) bool
	// Tick advances internal state by one cycle.
	Tick(now int64)
}
