package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/descriptor"
	"repro/internal/isa"
)

// This file implements the inter-stream dependence analyzer. At every
// program point where a stream configuration completes (its ss.end µOp) or a
// scalar/legacy store executes while streams are live, each live pair is
// classified over the verdict lattice
//
//	DepDisjoint  — byte footprints proven to never intersect (silent)
//	DepOrdered   — footprints intersect but an engine ordering guarantee
//	               makes the overlap safe (silent)
//	DepHazard    — footprints intersect with no ordering guarantee (error)
//	DepUnknown   — could not be decided: ⊤ footprints, imprecise hulls,
//	               unresolved scalar addresses, or budget exhaustion (warning)
//
// The ordering guarantees mirror internal/engine:
//
//   - RAW (store configured first, load second): processSCROB defers a load
//     stream's activation while any store stream still has uncommitted
//     chunks, so a later-configured load always observes the stores' data.
//   - WAR (load first, store second): safe when the two sequences are
//     identical (lockstep read-then-write renaming, the Floyd-Warshall and
//     irsmk idiom), or more generally when every commonly-touched address is
//     first read at a sequence position no later than it is first written —
//     the store's commit of element q waits for the core to commit the
//     producing instruction, which consumes load elements at equal pace, so
//     the load's prefetch of position p ≤ q wins the race. Position
//     comparison across the two streams assumes equal pace, a documented
//     imprecision (DESIGN.md).
//   - Retired access: when the earlier stream has no reachable use after the
//     later access's program point, every value the program will ever observe
//     from it was delivered to an instruction that the in-order core committed
//     before the later access's first write — and elements the engine may
//     still prefetch into a never-drained FIFO are unobservable. The
//     cross-phase idiom (Jacobi's two sweeps) is safe this way: the first
//     sweep's streams are fully consumed before the second sweep's store
//     configures, even though the may-liveness analysis cannot prove they
//     ended (only the branch-tested sibling is refined at the loop exit).
//   - Scalar loads are never checked: the core's LSQ holds them while
//     StoreMayOverlap reports a conflicting store-stream chunk, which makes
//     them coherent by construction.
//
// WAW overlaps between different store streams have no ordering guarantee
// and are hazards. Two configurations of the *same* register are never
// paired: slot renaming plus the in-order SCROB serializes them (and data
// production of the later one transitively waits on the earlier).

// DepVerdict is the analyzer's classification of one dependence pair.
type DepVerdict int

const (
	// DepUnknown means the pair could not be classified; reported as a
	// warning.
	DepUnknown DepVerdict = iota
	// DepDisjoint means the footprints provably never intersect.
	DepDisjoint
	// DepOrdered means the footprints intersect but an engine ordering
	// guarantee makes the overlap safe.
	DepOrdered
	// DepHazard means the footprints intersect with no ordering guarantee;
	// reported as an error.
	DepHazard
)

func (v DepVerdict) String() string {
	switch v {
	case DepDisjoint:
		return "disjoint"
	case DepOrdered:
		return "ordered"
	case DepHazard:
		return "hazard"
	}
	return "unknown"
}

// DepPair is one analyzed dependence between two simultaneously-live
// accesses. First is the stream whose configuration is live when the second
// access appears; Second is -1 when the second access is a scalar store
// (SecondPC then points at the store instruction).
type DepPair struct {
	First    int
	Second   int
	FirstPC  int // ss.end of First's configuration
	SecondPC int // ss.end of Second's configuration, or the scalar store pc
	Kind     string
	Verdict  DepVerdict
	Detail   string
}

func (p DepPair) String() string {
	second := fmt.Sprintf("u%d@%d", p.Second, p.SecondPC)
	if p.Second < 0 {
		second = fmt.Sprintf("store@%d", p.SecondPC)
	}
	return fmt.Sprintf("%s u%d@%d vs %s: %s (%s)", p.Kind, p.First, p.FirstPC, second, p.Verdict, p.Detail)
}

// Analysis budgets. Exceeding one degrades a verdict to DepUnknown.
const (
	depRelateBudget   = 1 << 22
	depPositionBudget = 1 << 20
)

// checkDeps walks every reachable program point with the dataflow fixpoint's
// in-states and classifies stream/stream and scalar-store/stream pairs.
func (c *checker) checkDeps() {
	if c.in == nil || len(c.sites) == 0 {
		return
	}
	maxElems := c.opts.MaxFootprintElems
	if maxElems <= 0 {
		maxElems = DefaultMaxFootprintElems
	}
	fps := make([]*descriptor.Footprint, len(c.sites))
	fp := func(i int) *descriptor.Footprint {
		if fps[i] == nil {
			if c.sites[i].Desc == nil {
				fps[i] = &descriptor.Footprint{Top: true, Reason: "configuration did not reassemble"}
			} else {
				fps[i] = descriptor.NewFootprint(c.sites[i].Desc, maxElems)
			}
		}
		return fps[i]
	}
	seen := map[[2]int]bool{}
	for pc := range c.insts {
		if !c.g.Reach[pc] {
			continue
		}
		in := &c.insts[pc]
		s := &c.in[pc]
		switch {
		case in.Op == isa.OpSCfg && in.Cfg != nil && in.Cfg.End:
			ni, ok := c.siteAt[pc]
			if !ok {
				continue
			}
			site := &c.sites[ni]
			for v := 0; v < isa.NumVecRegs; v++ {
				if v == site.Stream || s.stream[v]&(stActive|stSuspended) == 0 {
					continue
				}
				si := s.site[v]
				if si == siteConflict {
					key := [2]int{^v, ni}
					if !seen[key] {
						seen[key] = true
						c.depRecord(pc, DepPair{
							First: v, Second: site.Stream, FirstPC: -1, SecondPC: pc,
							Kind: "ambiguous", Verdict: DepUnknown,
							Detail: fmt.Sprintf("different configurations of u%d may be live here", v),
						})
					}
					continue
				}
				if si < 0 || int(si) >= len(c.sites) {
					continue
				}
				key := [2]int{int(si), ni}
				if seen[key] {
					continue
				}
				seen[key] = true
				c.classifyStreamPair(s, &c.sites[si], site, fp(int(si)), fp(ni))
			}
		case in.Op.IsStore():
			c.checkScalarStore(pc, s, in, fp)
		}
	}
}

// depRecord stores a pair and emits its diagnostic (hazards are errors,
// unknowns warnings; disjoint and ordered pairs are silent).
func (c *checker) depRecord(pc int, p DepPair) {
	c.deps = append(c.deps, p)
	switch p.Verdict {
	case DepHazard:
		c.errorf(pc, "%s", p.Detail)
	case DepUnknown:
		c.warnf(pc, "%s", p.Detail)
	}
}

// certainlyLive reports whether stream u is live on every path reaching the
// state (its status may-set holds no unconfigured/ended/stopped element).
// Hazard verdicts require certainty: a may-set that also says "ended" is the
// cross-loop shape where a lockstep sibling already drained the stream, and
// the overlap is then governed by the next load configuration's drain stall
// rather than by pair ordering.
func certainlyLive(s *state, u int) bool {
	st := s.stream[u]
	return st&(stActive|stSuspended) != 0 &&
		st&(stUnconf|stConfiguring|stEnded|stStopped) == 0
}

// classifyStreamPair classifies (old, new): old's configuration precedes
// new's on every path where both are live.
func (c *checker) classifyStreamPair(s *state, old, new *cfg.Site, fo, fn *descriptor.Footprint) {
	oldStore := old.Desc != nil && old.Desc.Kind == descriptor.Store
	newStore := new.Desc != nil && new.Desc.Kind == descriptor.Store
	if old.Desc != nil && new.Desc != nil && !oldStore && !newStore {
		return // read/read pairs are benign
	}
	kind := "WAR"
	switch {
	case oldStore && newStore:
		kind = "WAW"
	case oldStore:
		kind = "RAW"
	}
	p := DepPair{First: old.Stream, Second: new.Stream, FirstPC: old.EndPC, SecondPC: new.EndPC, Kind: kind}
	switch descriptor.Relate(fo, fn, depRelateBudget) {
	case descriptor.OverlapDisjoint:
		p.Verdict = DepDisjoint
		p.Detail = "footprints proven disjoint"
	case descriptor.OverlapUnknown:
		p.Verdict = DepUnknown
		p.Detail = fmt.Sprintf("cannot prove streams u%d and u%d disjoint: %s",
			old.Stream, new.Stream, depImprecision(fo, fn))
	case descriptor.OverlapYes:
		switch kind {
		case "RAW":
			p.Verdict = DepOrdered
			p.Detail = "engine defers the load configuration until prior store streams drain"
		case "WAW":
			if !c.streamUsed(new.EndPC, old.Stream) {
				p.Verdict = DepOrdered
				p.Detail = fmt.Sprintf("u%d has no producer after this configuration; in-order commit retires its writes first", old.Stream)
			} else if addr, ok := commonAddr(fo, fn); ok && certainlyLive(s, old.Stream) {
				p.Verdict = DepHazard
				p.Detail = fmt.Sprintf("store streams u%d and u%d both write %#x with no ordering guarantee (WAW)",
					old.Stream, new.Stream, addr)
			} else {
				p.Verdict = DepUnknown
				p.Detail = fmt.Sprintf("store streams u%d and u%d overlap if u%d is still live here (WAW)",
					old.Stream, new.Stream, old.Stream)
			}
		case "WAR":
			p.Verdict, p.Detail = c.classifyWAR(s, old, new, fo, fn)
		}
	}
	c.depRecord(new.EndPC, p)
}

// classifyWAR decides a proven-overlap write-after-read pair: load stream
// old is live when store stream new configures.
func (c *checker) classifyWAR(s *state, old, new *cfg.Site, fo, fn *descriptor.Footprint) (DepVerdict, string) {
	if fo.SameSequence(fn) {
		return DepOrdered, "identical sequences consumed in lockstep (read-then-write renaming)"
	}
	// Retired-access rule: no reachable consumer of the load after the
	// store's configuration means every delivered element was committed
	// before the store's first write (cross-phase sweeps).
	if !c.streamUsed(new.EndPC, old.Stream) {
		return DepOrdered, fmt.Sprintf("u%d has no consumer after this configuration; in-order commit retires its delivered reads first", old.Stream)
	}
	// Positional rule: for every address the store writes, the load's first
	// read position must not exceed the store's first write position.
	type viol struct {
		addr   int64
		rd, wr int64
	}
	var bad *viol
	budget := int64(depPositionBudget)
	firstWrite := make(map[int64]bool)
	complete := fn.EachElem(func(q, addr int64) bool {
		if budget--; budget < 0 {
			return false
		}
		if firstWrite[addr] {
			return true
		}
		firstWrite[addr] = true
		if p, ok := fo.FirstPos(addr-fo.Width, addr+fn.Width); ok && p > q {
			bad = &viol{addr: addr, rd: p, wr: q}
			return false
		}
		return true
	})
	switch {
	case !complete || budget < 0:
		return DepUnknown, fmt.Sprintf("cannot order overlapping streams u%d and u%d: %s",
			old.Stream, new.Stream, "positional check exceeded its budget")
	case bad == nil:
		return DepOrdered, "every overlapping address is read before it is written (read-leads-write)"
	case certainlyLive(s, old.Stream):
		return DepHazard, fmt.Sprintf(
			"load u%d first reads %#x at element %d, after store u%d writes it at element %d — the prefetch may return the stale pre-store value (WAR)",
			old.Stream, uint64(bad.addr), bad.rd, new.Stream, bad.wr)
	default:
		return DepUnknown, fmt.Sprintf(
			"store u%d overwrites %#x before load u%d would read it (element %d vs %d) if u%d is still live here (WAR)",
			new.Stream, uint64(bad.addr), old.Stream, bad.wr, bad.rd, old.Stream)
	}
}

// checkScalarStore classifies a scalar/vector store instruction against
// every live stream. Scalar loads need no check (the LSQ holds them against
// conflicting store-stream chunks); scalar stores can corrupt a load
// stream's already-prefetched data or race a store stream's commits. A
// store the value analysis proves unreachable never executes and gets no
// pairs.
func (c *checker) checkScalarStore(pc int, s *state, in *isa.Inst, fp func(int) *descriptor.Footprint) {
	live := false
	for v := range s.stream {
		live = live || s.stream[v]&(stActive|stSuspended) != 0
	}
	if !live || !c.valueRanges().Reachable(pc) {
		return
	}
	lo, hi, resolved, proved := c.storeRange(pc, in)
	exact := resolved && (in.Op == isa.OpStore || in.Op == isa.OpFStore)
	var unprovable []string
	for v := 0; v < isa.NumVecRegs; v++ {
		if s.stream[v]&(stActive|stSuspended) == 0 {
			continue
		}
		si := s.site[v]
		if si < 0 || int(si) >= len(c.sites) {
			if si == siteConflict {
				unprovable = append(unprovable, fmt.Sprintf("u%d", v))
			}
			continue
		}
		site := &c.sites[si]
		isLoad := site.Desc == nil || site.Desc.Kind == descriptor.Load
		kind := "WAR(scalar)"
		if !isLoad {
			kind = "WAW(scalar)"
		}
		p := DepPair{First: v, Second: -1, FirstPC: site.EndPC, SecondPC: pc, Kind: kind}
		rel := descriptor.OverlapUnknown
		if resolved || proved {
			rel = fp(int(si)).RelateRange(lo, hi)
		}
		switch {
		case rel != descriptor.OverlapDisjoint && !c.streamUsed(pc, v):
			p.Verdict = DepOrdered
			p.Detail = fmt.Sprintf("u%d has no use after this store; in-order commit retires its accesses first", v)
			c.deps = append(c.deps, p)
			continue
		case rel == descriptor.OverlapDisjoint:
			p.Verdict = DepDisjoint
			if proved {
				p.Detail = fmt.Sprintf("store range [%#x,%#x) proven outside the stream footprint by value-range analysis",
					uint64(lo), uint64(hi))
			} else {
				p.Detail = "store range proven outside the stream footprint"
			}
			c.deps = append(c.deps, p)
			continue
		case rel == descriptor.OverlapYes && exact && certainlyLive(s, v):
			p.Verdict = DepHazard
			if isLoad {
				p.Detail = fmt.Sprintf("store to [%#x,%#x) lands inside live load stream u%d's footprint — the stream may already have prefetched the stale value",
					uint64(lo), uint64(hi), v)
			} else {
				p.Detail = fmt.Sprintf("store to [%#x,%#x) races live store stream u%d's commits to the same addresses",
					uint64(lo), uint64(hi), v)
			}
			c.depRecord(pc, p)
			continue
		default:
			p.Verdict = DepUnknown
			p.Detail = fmt.Sprintf("cannot prove the store disjoint from stream u%d", v)
			c.deps = append(c.deps, p)
			unprovable = append(unprovable, fmt.Sprintf("u%d", v))
		}
	}
	if len(unprovable) > 0 {
		sort.Strings(unprovable)
		var what string
		switch {
		case resolved:
			what = "stream footprint is imprecise"
		case proved:
			what = fmt.Sprintf("store address range [%#x,%#x) still overlaps", uint64(lo), uint64(hi))
		default:
			what = fmt.Sprintf("store address is statically unknown (%s)",
				c.intProducerList(in.Src1))
		}
		c.warnf(pc, "scalar store while streams %s may be live: %s, so disjointness is unprovable",
			strings.Join(unprovable, ", "), what)
	}
}

// depImprecision names the source of an unknown stream/stream verdict: the
// imprecise footprint(s), or budget exhaustion when both are exact.
func depImprecision(a, b *descriptor.Footprint) string {
	var rs []string
	for _, f := range []*descriptor.Footprint{a, b} {
		if f.Top || (!f.Empty() && f.Spans == nil) {
			r := f.Reason
			if r == "" {
				r = "footprint is imprecise"
			}
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return "overlap query exceeded its budget"
	}
	return strings.Join(rs, "; ")
}

// commonAddr finds one address two exact footprints both touch, for
// diagnostics. ok is false only if enumeration is cut short.
func commonAddr(a, b *descriptor.Footprint) (int64, bool) {
	var hit int64
	found := false
	budget := int64(depPositionBudget)
	b.EachElem(func(_, addr int64) bool {
		if budget--; budget < 0 {
			return false
		}
		if _, ok := a.FirstPos(addr-a.Width, addr+b.Width); ok {
			hit, found = addr, true
			return false
		}
		return true
	})
	return hit, found
}
