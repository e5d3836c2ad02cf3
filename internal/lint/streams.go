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

// checkFootprints checks the address sequence of every reachable
// non-indirect configuration against the declared buffer extents. Indirect
// descriptors are skipped — their addresses depend on runtime data.
// Enumeration is capped so linting stays cheap relative to simulation.
func (c *checker) checkFootprints() {
	if len(c.opts.Extents) == 0 {
		return
	}
	extents := newExtentSet(c.opts.Extents)
	cap := c.opts.MaxFootprintElems
	if cap <= 0 {
		cap = DefaultMaxFootprintElems
	}
	for _, site := range c.sites {
		if site.Desc == nil || site.Desc.HasIndirect() || !c.g.Reach[site.EndPC] {
			continue
		}
		if addr, n, ok := extents.escape(site.Desc, cap); ok {
			c.errorf(site.EndPC, "stream u%d accesses 0x%x (element %d), outside any allocated buffer",
				site.Stream, addr, n)
		}
	}
}

// extentSet is the declared buffers sorted by base. Alloc never overlaps
// them.
type extentSet []Extent

func newExtentSet(extents []Extent) extentSet {
	s := append(extentSet(nil), extents...)
	sort.Slice(s, func(i, j int) bool { return s[i].Base < s[j].Base })
	return s
}

// contains reports whether one extent holds [addr, addr+n).
func (s extentSet) contains(addr uint64, n int64) bool {
	// Rightmost extent starting at or below addr.
	i := sort.Search(len(s), func(i int) bool { return s[i].Base > addr })
	if i == 0 {
		return false
	}
	e := s[i-1]
	return addr >= e.Base && addr+uint64(n) <= e.Base+uint64(e.Size)
}

// escape returns the first of d's first cap elements that lies outside
// every extent, and its index. A modifier-free descriptor whose closed-form
// byte hull fits one extent is not walked: every element lies in the hull.
// Any other descriptor is walked, so the element found is the walk's.
func (s extentSet) escape(d *descriptor.Descriptor, cap int64) (addr uint64, n int64, ok bool) {
	if len(d.Static) == 0 {
		f := descriptor.NewFootprint(d, cap)
		if f.Elems > 0 && f.Min >= 0 && s.contains(uint64(f.Min), f.Max-f.Min+f.Width) {
			return 0, 0, false
		}
	}
	return s.walk(d, cap)
}

// walk enumerates d's first cap elements and returns the first that lies
// outside every extent, and its index.
func (s extentSet) walk(d *descriptor.Descriptor, cap int64) (uint64, int64, bool) {
	it := descriptor.NewIterator(d, nil)
	w := int64(d.Width)
	for n := int64(0); n < cap; n++ {
		e, ok := it.Next()
		if !ok {
			break
		}
		if !s.contains(e.Addr, w) {
			return e.Addr, n, true
		}
		if e.Last {
			break
		}
	}
	return 0, 0, false
}
