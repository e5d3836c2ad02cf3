package lint

import (
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
		if !c.reach[site.endPC] {
			continue
		}
		used, clobbered := c.streamUse(site.endPC, site.stream)
		if used {
			continue
		}
		if clobbered {
			c.errorf(site.endPC, "u%d reconfigured before its previous configuration was ever used", site.stream)
		} else {
			c.errorf(site.endPC, "u%d is configured but never used", site.stream)
		}
	}
}

// streamUse walks every reachable path from pc's successors for a use of
// stream u's current configuration — a core read or write of the vector
// register, an ss.force, or an indirect-origin consumer — before it is
// clobbered by a reconfiguration or ss.stop. It reports whether a use was
// found and, if not, whether any path reached a clobber (vs simply running
// off the program). When used is false, every observable effect of u
// precedes pc in commit order (see the retired-access rule in the package
// comment).
func (c *checker) streamUse(pc, u int) (used, clobbered bool) {
	seen := make([]bool, len(c.insts))
	stack := append([]int(nil), c.succs[pc]...)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		in := &c.insts[p]
		if d := in.DataDst(); d.Class == isa.ClassVec && int(d.N) == u {
			return true, clobbered
		}
		var srcs [4]isa.Reg
		for _, r := range in.DataSrcs(srcs[:0]) {
			if r.Class == isa.ClassVec && int(r.N) == u {
				return true, clobbered
			}
		}
		if in.Op == isa.OpSForce && int(in.Dst.N) == u {
			return true, clobbered
		}
		for _, endPC := range c.originUse[u] {
			if p == endPC {
				return true, clobbered
			}
		}
		if in.Op == isa.OpSCfg && in.Cfg != nil && in.Cfg.Stream == u && in.Cfg.Start ||
			in.Op == isa.OpSStop && int(in.Dst.N) == u {
			clobbered = true // later uses consume a new configuration
			continue
		}
		stack = append(stack, c.succs[p]...)
	}
	return false, clobbered
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
		if site.desc == nil || site.desc.HasIndirect() || !c.reach[site.endPC] {
			continue
		}
		it := descriptor.NewIterator(site.desc, nil)
		w := int64(site.desc.Width)
		for n := int64(0); n < cap; n++ {
			e, ok := it.Next()
			if !ok {
				break
			}
			if !contains(e.Addr, w) {
				c.errorf(site.endPC, "stream u%d accesses 0x%x (element %d), outside any allocated buffer",
					site.stream, e.Addr, n)
				break
			}
			if e.Last {
				break
			}
		}
	}
}
