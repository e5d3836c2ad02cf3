package lint

import (
	"slices"
	"sort"

	"repro/internal/descriptor"
	"repro/internal/isa"
)

// checkStreamUses flags configurations whose stream is never consumed: a
// reconfiguration that clobbers an unused stream, or a configuration the
// program ends without ever touching. "Use" means a core read or write of the
// vector register, an ss.force, or another configuration naming the stream as
// an indirect origin; stream branches alone do not count — testing whether a
// stream ended without ever consuming it does no work.
func (c *checker) checkStreamUses() {
	for _, site := range c.sites {
		if !c.g.Reach[site.EndPC] {
			continue
		}
		used, clobbered := c.streamUse(site.EndPC, site.Stream)
		if used {
			continue
		}
		if clobbered {
			c.errorf(site.EndPC, "u%d reconfigured before its previous configuration was ever used", site.Stream)
		} else {
			c.errorf(site.EndPC, "u%d is configured but never used", site.Stream)
		}
	}
}

// streamUse searches every path from pc's successors for a use of stream
// u's current configuration — a core read or write of the vector register,
// an ss.force, or an indirect-origin consumer — before a reconfiguration or
// ss.stop clobbers it. It reports whether a use was found and, if not,
// whether any path reached a clobber (vs simply running off the program).
// When used is false, every observable effect of u precedes pc in commit
// order (see the retired-access rule in the package comment).
func (c *checker) streamUse(pc, u int) (used, clobbered bool) {
	uses := func(p int) bool {
		in := &c.insts[p]
		if d := in.DataDst(); d.Class == isa.ClassVec && int(d.N) == u {
			return true
		}
		var srcs [4]isa.Reg
		for _, r := range in.DataSrcs(srcs[:0]) {
			if r.Class == isa.ClassVec && int(r.N) == u {
				return true
			}
		}
		return in.Op == isa.OpSForce && int(in.Dst.N) == u || slices.Contains(c.originUse[u], p)
	}
	clobbers := func(p int) bool {
		in := &c.insts[p]
		return in.Op == isa.OpSCfg && in.Cfg != nil && in.Cfg.Stream == u && in.Cfg.Start ||
			in.Op == isa.OpSStop && int(in.Dst.N) == u
	}
	// Later uses past a clobber consume a new configuration.
	along := func(from, _ int) bool { return from == pc || !clobbers(from) }
	if c.g.Reaches(pc, along, uses) {
		return true, false
	}
	return false, c.g.Reaches(pc, along, clobbers)
}

// streamUsed is streamUse's verdict alone, for the dependence rules.
func (c *checker) streamUsed(pc, u int) bool {
	used, _ := c.streamUse(pc, u)
	return used
}

// checkFootprints enumerates the exact address sequence of every reachable
// non-indirect configuration and checks each element against the declared
// buffer extents. Indirect descriptors are skipped — their addresses depend
// on runtime data. Enumeration is capped so linting stays cheap relative to
// simulation.
func (c *checker) checkFootprints() {
	if len(c.opts.Extents) == 0 {
		return
	}
	extents := append([]Extent(nil), c.opts.Extents...)
	sort.Slice(extents, func(i, j int) bool { return extents[i].Base < extents[j].Base })
	contains := func(addr uint64, n int64) bool {
		// Rightmost extent starting at or below addr; Alloc never overlaps.
		i := sort.Search(len(extents), func(i int) bool { return extents[i].Base > addr })
		if i == 0 {
			return false
		}
		e := extents[i-1]
		return addr >= e.Base && addr+uint64(n) <= e.Base+uint64(e.Size)
	}
	cap := c.opts.MaxFootprintElems
	if cap <= 0 {
		cap = DefaultMaxFootprintElems
	}
	for _, site := range c.sites {
		if site.Desc == nil || site.Desc.HasIndirect() || !c.g.Reach[site.EndPC] {
			continue
		}
		it := descriptor.NewIterator(site.Desc, nil)
		w := int64(site.Desc.Width)
		for n := int64(0); n < cap; n++ {
			e, ok := it.Next()
			if !ok {
				break
			}
			if !contains(e.Addr, w) {
				c.errorf(site.EndPC, "stream u%d accesses 0x%x (element %d), outside any allocated buffer",
					site.Stream, e.Addr, n)
				break
			}
			if e.Last {
				break
			}
		}
	}
}
