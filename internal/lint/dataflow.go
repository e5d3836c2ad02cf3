package lint

import (
	"fmt"
	"strings"

	"repro/internal/descriptor"
	"repro/internal/isa"
)

// Stream status bits. The per-register status is a may-set: merges at CFG
// joins union the statuses, and checks only fire when every status in the
// set is bad (so streams ending in lockstep with a branch-tested sibling —
// the Floyd-Warshall idiom — stay "active" instead of raising noise).
const (
	stUnconf uint8 = 1 << iota
	stConfiguring
	stActive
	stSuspended
	stEnded
	stStopped
)

// Reaching-descriptor kind bits per stream register.
const (
	kindLoad uint8 = 1 << iota
	kindStore
)

// widthConflict marks a predicate register whose reaching producers disagree
// on element width.
const widthConflict uint8 = 0xff

// Reaching-configuration-site markers (state.site values beside a site
// index): siteNone means no configuration reaches, siteConflict means
// different sites reach along different paths.
const (
	siteNone     int16 = -1
	siteConflict int16 = -2
)

// state is the abstract machine state at an instruction boundary: must-
// defined register bitmasks (merge: intersection), predicate element widths,
// per-vector-register stream status may-sets (merge: union), and the
// reaching configuration site per stream register. Register values are
// absint's business (prove.go). The struct is comparable, which the
// fixpoint loop uses for change detection.
type state struct {
	intDef  uint32
	fpDef   uint32
	vecDef  uint32
	predDef uint16
	predW   [isa.NumPredRegs]uint8
	stream  [isa.NumVecRegs]uint8
	kind    [isa.NumVecRegs]uint8
	site    [isa.NumVecRegs]int16
}

func (c *checker) entryState() state {
	var s state
	s.intDef = 1 // x0 reads as zero
	for _, r := range c.opts.EntryInt {
		if r >= 0 && r < isa.NumIntRegs {
			s.intDef |= 1 << uint(r)
		}
	}
	for _, r := range c.opts.EntryFP {
		if r >= 0 && r < isa.NumFPRegs {
			s.fpDef |= 1 << uint(r)
		}
	}
	s.predDef = 1 // p0 is hardwired all-true
	for u := range s.stream {
		s.stream[u] = stUnconf
		s.site[u] = siteNone
	}
	return s
}

// merge folds b into a (meet at a CFG join) and reports whether a changed.
func merge(a *state, b *state) bool {
	old := *a
	a.intDef &= b.intDef
	a.fpDef &= b.fpDef
	a.vecDef &= b.vecDef
	a.predDef &= b.predDef
	for i := range a.predW {
		if a.predW[i] == 0 {
			a.predW[i] = b.predW[i]
		} else if b.predW[i] != 0 && b.predW[i] != a.predW[i] {
			a.predW[i] = widthConflict
		}
	}
	for u := range a.stream {
		a.stream[u] |= b.stream[u]
		a.kind[u] |= b.kind[u]
		switch {
		case a.site[u] == b.site[u]:
		case a.site[u] == siteNone:
			a.site[u] = b.site[u]
		case b.site[u] == siteNone:
		default:
			a.site[u] = siteConflict
		}
	}
	return *a != old
}

// runDataflow computes the per-instruction in-states by forward fixpoint
// iteration, then replays every reachable instruction once against its final
// in-state to emit diagnostics.
func (c *checker) runDataflow() {
	n := len(c.insts)
	c.in = make([]state, n)
	visited := make([]bool, n)
	c.in[0] = c.entryState()
	visited[0] = true

	work := []int{0}
	inWork := make([]bool, n)
	inWork[0] = true
	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		inWork[pc] = false
		outs := c.transfer(pc, c.in[pc], nil)
		for i, s := range c.g.Succs[pc] {
			changed := false
			if !visited[s] {
				c.in[s] = outs[i]
				visited[s] = true
				changed = true
			} else {
				changed = merge(&c.in[s], &outs[i])
			}
			if changed && !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		if c.g.Reach[pc] {
			c.transfer(pc, c.in[pc], c)
		}
	}
}

// transfer applies instruction pc to s, returning one out-state per CFG
// successor (in Succs order: branch target first, then fallthrough). When
// rep is non-nil the checks run and report through it; the fixpoint pass
// passes nil so diagnostics are emitted exactly once, against final states.
func (c *checker) transfer(pc int, s state, rep *checker) []state {
	in := &c.insts[pc]
	op := in.Op

	// --- reads ---
	var srcs [4]isa.Reg
	for _, r := range in.DataSrcs(srcs[:0]) {
		if rep != nil {
			rep.checkRead(pc, &s, in, r)
		}
	}

	// --- stream lifecycle ---
	if u, ok := in.StreamOperand(); ok && u >= 0 && u < isa.NumVecRegs {
		st := s.stream[u]
		switch op {
		case isa.OpSCfg:
			part := in.Cfg
			if part != nil && part.Start {
				if rep != nil && st&stSuspended != 0 {
					rep.errorf(pc, "u%d reconfigured while its stream may be suspended (resume or stop it first)", u)
				}
				s.stream[u] = stConfiguring
			}
			if part != nil && part.End {
				s.stream[u] = stActive
				var d *descriptor.Descriptor
				if si, ok := c.siteAt[pc]; ok {
					s.site[u] = int16(si)
					d = c.sites[si].Desc
				}
				if d != nil {
					if d.Kind == descriptor.Load {
						s.kind[u] = kindLoad
					} else {
						s.kind[u] = kindStore
					}
					if rep != nil {
						for _, o := range d.Origins() {
							if o < 0 || o >= isa.NumVecRegs {
								continue // reassembly (cfg.StreamConfigs) validated it
							}
							if s.stream[o]&stActive == 0 {
								rep.errorf(pc, "u%d's indirect modifier consumes origin stream u%d, which is not active here", u, o)
							}
						}
					}
				}
			}
		case isa.OpSSuspend:
			if rep != nil && st&stActive == 0 {
				rep.errorf(pc, "ss.suspend on u%d, which is not an active stream", u)
			}
			s.stream[u] = stSuspended
		case isa.OpSResume:
			if rep != nil && st&stSuspended == 0 {
				rep.errorf(pc, "ss.resume on u%d, which is not suspended", u)
			}
			s.stream[u] = stActive
		case isa.OpSForce:
			if rep != nil && st&stSuspended == 0 {
				rep.errorf(pc, "ss.force on u%d, which is not suspended", u)
			}
		case isa.OpSStop:
			if rep != nil && st&(stActive|stSuspended|stEnded) == 0 {
				rep.errorf(pc, "ss.stop on u%d, which has no configured stream", u)
			}
			s.stream[u] = stStopped
		default: // stream-conditional branches
			if rep != nil && st&(stActive|stSuspended|stEnded) == 0 {
				rep.errorf(pc, "stream branch on u%d, which has no configured stream", u)
			}
		}
	}

	// --- predicate width consistency ---
	if rep != nil && in.Pred.Class == isa.ClassPred && in.Pred.N != 0 && in.W != 0 {
		p := int(in.Pred.N)
		if p < isa.NumPredRegs && s.predDef&(1<<uint(p)) != 0 {
			switch w := s.predW[p]; {
			case w == widthConflict:
				rep.errorf(pc, "predicate p%d reaches here with conflicting element widths (%s)",
					p, rep.predProducerList(p))
			case w != 0 && w != uint8(in.W):
				rep.errorf(pc, "predicate p%d was produced for %d-byte lanes but %s expects %d-byte lanes",
					p, w, op.Name(), int(in.W))
			}
		}
	}

	// --- defs ---
	if d := in.DataDst(); d.Class != isa.ClassNone && d.Valid() {
		switch d.Class {
		case isa.ClassInt:
			if d.N != 0 {
				s.intDef |= 1 << uint(d.N)
			}
		case isa.ClassFP:
			s.fpDef |= 1 << uint(d.N)
		case isa.ClassPred:
			s.predDef |= 1 << uint(d.N)
			switch op {
			case isa.OpWhilelt, isa.OpPTrue:
				s.predW[d.N] = uint8(in.W)
			case isa.OpPNot:
				if in.Src1.Class == isa.ClassPred && int(in.Src1.N) < isa.NumPredRegs {
					s.predW[d.N] = s.predW[in.Src1.N]
				}
			default:
				s.predW[d.N] = uint8(in.W)
			}
		case isa.ClassVec:
			u := int(d.N)
			st := s.stream[u]
			if st&(stActive|stSuspended) != 0 && st&(stUnconf|stConfiguring|stStopped) == 0 {
				// The register is bound to a live stream on every path: the
				// write emits an element to it rather than defining the
				// register.
				if rep != nil && s.kind[u] == kindLoad {
					rep.errorf(pc, "%s writes u%d, which is bound to a load stream", op.Name(), u)
				}
			} else {
				s.vecDef |= 1 << uint(u)
			}
		}
	}

	// --- per-edge refinement for whole-stream end branches ---
	outs := make([]state, len(c.g.Succs[pc]))
	for i := range outs {
		outs[i] = s
	}
	if (op == isa.OpSBNotEnd || op == isa.OpSBEnd) && len(outs) == 2 {
		u := int(in.Src1.N)
		if u >= 0 && u < isa.NumVecRegs && s.stream[u]&(stActive|stEnded) != 0 {
			st := s.stream[u]
			notEnded := (st &^ stEnded) | stActive
			ended := (st &^ stActive) | stEnded
			if op == isa.OpSBNotEnd {
				outs[0].stream[u] = notEnded // taken: stream continues
				outs[1].stream[u] = ended    // fallthrough: stream is done
			} else {
				outs[0].stream[u] = ended
				outs[1].stream[u] = notEnded
			}
		}
	}
	return outs
}

// predProducerList names the instructions that define a predicate register
// with an element width, so a width-conflict diagnostic can say which
// producers disagree. pnot copies are reported as copies of their source.
func (c *checker) predProducerList(p int) string {
	type prod struct {
		pc int
		w  uint8
	}
	var prods []prod
	for pc := range c.insts {
		in := &c.insts[pc]
		d := in.DataDst()
		if d.Class != isa.ClassPred || int(d.N) != p || in.Op == isa.OpPNot {
			continue
		}
		prods = append(prods, prod{pc, uint8(in.W)})
	}
	if len(prods) == 0 {
		return "no width-defining producer found"
	}
	parts := make([]string, len(prods))
	for i, pr := range prods {
		parts[i] = fmt.Sprintf("%d-byte lanes at %d", pr.w, pr.pc)
	}
	return "produced for " + strings.Join(parts, ", ")
}

// intProducerList names the instructions that define an integer register, so
// an unresolved-address diagnostic can point at the producer(s) of a scalar
// store's base rather than only at the store itself.
func (c *checker) intProducerList(r isa.Reg) string {
	if r.Class != isa.ClassInt || int(r.N) >= isa.NumIntRegs {
		return "no address register"
	}
	var pcs []string
	for pc := range c.insts {
		in := &c.insts[pc]
		if d := in.DataDst(); d.Class == isa.ClassInt && d.N == r.N {
			pcs = append(pcs, fmt.Sprintf("%d", pc))
		}
	}
	if len(pcs) == 0 {
		return fmt.Sprintf("base x%d holds an entry value", r.N)
	}
	return fmt.Sprintf("base x%d produced at %s", r.N, strings.Join(pcs, ", "))
}

// checkRead validates one data-source register against the in-state.
func (c *checker) checkRead(pc int, s *state, in *isa.Inst, r isa.Reg) {
	if !r.Valid() {
		return // reported by checkRegisters
	}
	switch r.Class {
	case isa.ClassInt:
		if r.N != 0 && s.intDef&(1<<uint(r.N)) == 0 {
			c.errorf(pc, "x%d may be used before it is defined", r.N)
		}
	case isa.ClassFP:
		if s.fpDef&(1<<uint(r.N)) == 0 {
			c.errorf(pc, "f%d may be used before it is defined", r.N)
		}
	case isa.ClassPred:
		if r.N != 0 && s.predDef&(1<<uint(r.N)) == 0 {
			c.errorf(pc, "predicate p%d may be used before it is set", r.N)
		}
	case isa.ClassVec:
		u := int(r.N)
		if s.vecDef&(1<<uint(u)) != 0 {
			return
		}
		st := s.stream[u]
		switch {
		case st&stActive != 0:
			if s.kind[u] == kindStore {
				c.errorf(pc, "u%d reads a store (output) stream", u)
			}
		case c.configured&(1<<uint(u)) == 0:
			c.errorf(pc, "u%d may be used before it is defined", u)
		case st == stEnded:
			c.errorf(pc, "u%d read after its stream has ended", u)
		case st&stSuspended != 0:
			c.errorf(pc, "u%d read while its stream may be suspended", u)
		default:
			c.errorf(pc, "u%d may be read before its stream is configured", u)
		}
	}
}
