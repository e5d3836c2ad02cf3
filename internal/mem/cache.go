package mem

import (
	"fmt"

	"repro/internal/arch"
)

// LineState is a MOESI coherence state (paper: snoop-based MOESI between
// cache levels, Table I).
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Dirty reports whether the state holds data newer than the level below.
func (s LineState) Dirty() bool { return s == Modified || s == Owned }

// Prefetcher reacts to demand accesses and proposes lines to prefetch.
type Prefetcher interface {
	// OnAccess observes a demand access and returns line addresses to
	// prefetch into the observing cache. The result is valid until the
	// next call: prefetchers reuse its buffer.
	OnAccess(now int64, line uint64, pc int, hit bool) []uint64
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name            string
	Level           arch.CacheLevel
	SizeBytes       int
	Ways            int
	HitLatency      int
	MSHRs           int
	AcceptsPerCycle int
	PrefetchQueue   int
}

// CacheStats counts cache-level events.
type CacheStats struct {
	Hits, Misses       uint64
	BypassReqs         uint64
	Evictions          uint64
	Writebacks         uint64
	Rejects            uint64
	PrefetchIssued     uint64
	PrefetchFills      uint64
	PrefetchUsefulHits uint64
	Invalidations      uint64
}

type wayEntry struct {
	tag        uint64
	state      LineState
	lastUsed   int64
	prefetched bool
}

// mshr is one outstanding miss. MSHRs are recycled through the cache's
// free list; each owns the fill request it sends below and that request's
// completion callback, built once when the MSHR is first allocated.
type mshr struct {
	line   uint64
	write  bool
	dones  []func(int64)
	issued bool
	demand bool
	fill   Req
}

type timedDone struct {
	at int64
	fn func(int64)
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg   CacheConfig
	lower Port
	upper *Cache // next level toward the core, for back-invalidation
	pf    Prefetcher

	ways     []wayEntry // numSets sets of cfg.Ways entries, set-major
	numSets  uint64
	mshrs    []*mshr // outstanding misses in allocation order (≤ cfg.MSHRs)
	mshrFree []*mshr
	// Rejected writebacks and proposed prefetches wait in FIFOs that are
	// windows into fixed backing arrays (see arch.Enqueue). wbReq is reused
	// for each writeback's first attempt (Access keeps no pointer to it).
	wbQueue  []Req
	wbBuf    []Req
	wbReq    Req
	pfQueue  []uint64
	pfBuf    []uint64
	pending  []timedDone
	accepted int
	lastTick int64
	activity uint64

	// pendingAt is the earliest at among pending (NoEvent when it is
	// empty): Tick scans pending only from that cycle on.
	pendingAt int64

	Stats CacheStats
}

// NewCache builds a cache level over the given lower port.
func NewCache(cfg CacheConfig, lower Port) *Cache {
	numSets := cfg.SizeBytes / (arch.LineSize * cfg.Ways)
	if numSets < 1 {
		numSets = 1
	}
	if cfg.PrefetchQueue == 0 {
		cfg.PrefetchQueue = 16
	}
	return &Cache{
		cfg:     cfg,
		lower:   lower,
		ways:    make([]wayEntry, numSets*cfg.Ways),
		numSets: uint64(numSets),
		mshrs:   make([]*mshr, 0, cfg.MSHRs),
		wbBuf:   make([]Req, 2*cfg.MSHRs),
		pfBuf:   make([]uint64, 2*cfg.PrefetchQueue),

		pendingAt: NoEvent,
	}
}

// SetUpper links the cache level closer to the core (for back-invalidation
// when this level evicts a line the upper one holds).
func (c *Cache) SetUpper(u *Cache) { c.upper = u }

// SetPrefetcher attaches a hardware prefetcher to this level.
func (c *Cache) SetPrefetcher(p Prefetcher) { c.pf = p }

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setOf(line uint64) []wayEntry {
	i := int((line/arch.LineSize)%c.numSets) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways]
}

func (c *Cache) lookup(line uint64) *wayEntry {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

// Contains reports whether the line is present (any valid state).
func (c *Cache) Contains(line uint64) bool { return c.lookup(line) != nil }

// StateOf returns the MOESI state of the line.
func (c *Cache) StateOf(line uint64) LineState {
	if e := c.lookup(line); e != nil {
		return e.state
	}
	return Invalid
}

// Access implements Port.
func (c *Cache) Access(now int64, r *Req) bool {
	c.activity++ // every outcome mutates: an allocation, a hit update, or a reject tally
	if now != c.lastTick {
		// Defensive: budget is normally reset in Tick; handle out-of-order
		// first use within a cycle.
		c.accepted = 0
		c.lastTick = now
	}
	if c.accepted >= c.cfg.AcceptsPerCycle {
		c.Stats.Rejects++
		return false
	}

	// Non-cacheable at this level: forward to the level below (the paper's
	// stream cache-level bypass issues the request as non-cacheable on all
	// levels above the configured one, §IV-A).
	if r.MinLevel > c.cfg.Level {
		if !c.lower.Access(now, r) {
			c.Stats.Rejects++
			return false
		}
		c.accepted++
		c.Stats.BypassReqs++
		return true
	}

	line := r.Line & arch.LineMask
	if e := c.lookup(line); e != nil {
		c.accepted++
		c.Stats.Hits++
		e.lastUsed = now
		if e.prefetched {
			e.prefetched = false
			c.Stats.PrefetchUsefulHits++
		}
		if r.Write && e.state != Modified {
			e.state = Modified
		}
		if r.Done != nil {
			c.schedule(now+int64(c.cfg.HitLatency), r.Done)
		}
		c.observe(now, line, r.PC, true)
		return true
	}

	// Miss: merge into an existing MSHR if one is outstanding.
	if ms := c.mshrFor(line); ms != nil {
		c.accepted++
		c.Stats.Hits++ // secondary miss, already in flight
		if r.Write {
			ms.write = true
		}
		if !r.Prefetch {
			ms.demand = true
		}
		if r.Done != nil {
			ms.dones = append(ms.dones, r.Done)
		}
		c.observe(now, line, r.PC, false)
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.Stats.Rejects++
		return false
	}
	c.accepted++
	c.Stats.Misses++
	ms := c.allocMSHR(line)
	ms.write = r.Write
	ms.demand = !r.Prefetch
	if r.Done != nil {
		ms.dones = append(ms.dones, r.Done)
	}
	c.issueFill(now, ms)
	c.observe(now, line, r.PC, false)
	return true
}

func (c *Cache) observe(now int64, line uint64, pc int, hit bool) {
	if c.pf == nil {
		return
	}
	for _, l := range c.pf.OnAccess(now, line, pc, hit) {
		if len(c.pfQueue) >= c.cfg.PrefetchQueue {
			break
		}
		l &= arch.LineMask
		if c.lookup(l) != nil || c.mshrFor(l) != nil {
			continue
		}
		c.pfQueue = arch.Enqueue(c.pfQueue, c.pfBuf, l)
	}
}

// mshrFor returns the outstanding MSHR for line, or nil.
func (c *Cache) mshrFor(line uint64) *mshr {
	for _, ms := range c.mshrs {
		if ms.line == line {
			return ms
		}
	}
	return nil
}

// allocMSHR appends a cleared MSHR for line, reusing a freed one when
// available. The caller has checked that fewer than cfg.MSHRs are live.
func (c *Cache) allocMSHR(line uint64) *mshr {
	var ms *mshr
	if n := len(c.mshrFree); n > 0 {
		ms = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
	} else {
		ms = new(mshr)
		ms.fill.Done = func(done int64) { c.fill(done, ms.line) }
	}
	ms.line, ms.write, ms.issued, ms.demand = line, false, false, false
	ms.fill.Line = line
	c.mshrs = append(c.mshrs, ms)
	return ms
}

// freeMSHR removes ms, keeping the rest in allocation order, and recycles
// it. Its fill request is no longer referenced below: either it was never
// issued, or the lower level has completed it.
func (c *Cache) freeMSHR(ms *mshr) {
	for i, m := range c.mshrs {
		if m == ms {
			c.mshrs = append(c.mshrs[:i], c.mshrs[i+1:]...)
			break
		}
	}
	ms.dones = ms.dones[:0]
	c.mshrFree = append(c.mshrFree, ms)
}

func (c *Cache) issueFill(now int64, ms *mshr) {
	if ms.issued {
		return
	}
	if c.lower.Access(now, &ms.fill) {
		ms.issued = true
	}
}

// fill installs a line when the lower level responds.
func (c *Cache) fill(now int64, line uint64) {
	ms := c.mshrFor(line)
	if ms == nil {
		return
	}
	set := c.setOf(line)
	victim := &set[0]
	for i := range set {
		if set[i].state == Invalid {
			victim = &set[i]
			break
		}
		if set[i].lastUsed < victim.lastUsed {
			victim = &set[i]
		}
	}
	if victim.state != Invalid {
		c.evict(now, victim)
	}
	victim.tag = line
	victim.lastUsed = now
	victim.prefetched = !ms.demand
	if !ms.demand {
		c.Stats.PrefetchFills++
	}
	if ms.write {
		victim.state = Modified
	} else {
		victim.state = Exclusive
	}
	for _, done := range ms.dones {
		c.schedule(now+int64(c.cfg.HitLatency), done)
	}
	c.freeMSHR(ms)
}

func (c *Cache) evict(now int64, e *wayEntry) {
	c.Stats.Evictions++
	if e.state.Dirty() {
		c.Stats.Writebacks++
		c.writeback(now, Req{Line: e.tag, Write: true})
	}
	if c.upper != nil {
		c.upper.Invalidate(now, e.tag)
	}
	e.state = Invalid
	e.prefetched = false
}

// writeback sends a dirty line below, queueing it for retry when rejected.
func (c *Cache) writeback(now int64, wb Req) {
	c.wbReq = wb
	if !c.lower.Access(now, &c.wbReq) {
		c.wbQueue = arch.Enqueue(c.wbQueue, c.wbBuf, wb)
	}
}

// Invalidate removes the line (back-invalidation from the level below or a
// write snoop). A dirty copy is written back directly to memory, bypassing
// the level that initiated the invalidation.
func (c *Cache) Invalidate(now int64, line uint64) {
	e := c.lookup(line)
	if e == nil {
		return
	}
	c.Stats.Invalidations++
	if e.state.Dirty() {
		c.Stats.Writebacks++
		c.writeback(now, Req{Line: e.tag, Write: true, MinLevel: arch.LevelMem})
	}
	if c.upper != nil {
		c.upper.Invalidate(now, line)
	}
	e.state = Invalid
	e.prefetched = false
}

// Snoop applies a MOESI bus snoop to the line: a read snoop demotes
// Exclusive→Shared and Modified→Owned (this cache supplies the data); a
// write snoop invalidates. It returns the state after the snoop.
func (c *Cache) Snoop(now int64, line uint64, write bool) LineState {
	e := c.lookup(line)
	if e == nil {
		return Invalid
	}
	if write {
		c.Invalidate(now, line)
		return Invalid
	}
	switch e.state {
	case Exclusive:
		e.state = Shared
	case Modified:
		e.state = Owned
	}
	return e.state
}

func (c *Cache) schedule(at int64, fn func(int64)) {
	c.pending = append(c.pending, timedDone{at: at, fn: fn})
	c.pendingAt = min(c.pendingAt, at)
}

// Tick implements Port.
func (c *Cache) Tick(now int64) {
	c.accepted = 0
	c.lastTick = now

	// Retry unissued fills, oldest first, and queued writebacks.
	for _, ms := range c.mshrs {
		if !ms.issued {
			c.activity++ // issue, or the lower level's reject tally
			c.issueFill(now, ms)
		}
	}
	for len(c.wbQueue) > 0 {
		c.activity++
		if !c.lower.Access(now, &c.wbQueue[0]) {
			break
		}
		c.wbQueue = c.wbQueue[1:]
	}
	// Issue queued prefetches with leftover capacity.
	for len(c.pfQueue) > 0 && c.accepted < c.cfg.AcceptsPerCycle && len(c.mshrs) < c.cfg.MSHRs {
		c.activity++
		line := c.pfQueue[0]
		if c.lookup(line) != nil || c.mshrFor(line) != nil {
			c.pfQueue = c.pfQueue[1:]
			continue
		}
		ms := c.allocMSHR(line)
		c.issueFill(now, ms)
		if !ms.issued {
			c.freeMSHR(ms)
			break
		}
		c.Stats.PrefetchIssued++
		c.accepted++
		c.pfQueue = c.pfQueue[1:]
	}
	// Fire matured completions, in schedule order, once the earliest has
	// matured.
	if now < c.pendingAt {
		return
	}
	kept := c.pending[:0]
	c.pendingAt = NoEvent
	for _, p := range c.pending {
		if p.at <= now {
			c.activity++
			p.fn(now)
		} else {
			kept = append(kept, p)
			c.pendingAt = min(c.pendingAt, p.at)
		}
	}
	c.pending = kept
}

// PendingOps reports outstanding internal work (for drain detection).
func (c *Cache) PendingOps() int {
	return len(c.mshrs) + len(c.wbQueue) + len(c.pending)
}

// NextEventAt returns a lower bound on the cycle of this cache's next state
// change, assuming no new requests arrive: now+1 while any retry work could
// run in the next Tick (unissued fills, queued writebacks or prefetches —
// those retries also mutate reject counters below, so they are never
// skippable), the earliest matured completion otherwise, or NoEvent when
// the cache is fully quiescent. The event-driven scheduler may advance time
// directly to the minimum such bound; Ticks before it are provable no-ops.
func (c *Cache) NextEventAt(now int64) int64 {
	for _, ms := range c.mshrs {
		if !ms.issued {
			return now + 1
		}
	}
	if len(c.wbQueue) > 0 || len(c.pfQueue) > 0 {
		return now + 1
	}
	return c.pendingAt
}

func (c *Cache) String() string {
	return fmt.Sprintf("%s{%dKB %d-way, hits=%d misses=%d}",
		c.cfg.Name, c.cfg.SizeBytes/1024, c.cfg.Ways, c.Stats.Hits, c.Stats.Misses)
}
