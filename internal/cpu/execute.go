package cpu

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// issue selects ready instructions oldest-first, bounded by the issue width
// and per-port functional-unit counts (Table I: 2 int ALUs, 2 vector/FP
// units, 2 load + 1 store ports): it repeatedly takes the oldest head among
// the ready lists whose group still has a free unit.
func (c *Core) issue() {
	caps := [pgCount]int{
		pgInt:   c.cfg.IntALUs,
		pgVec:   c.cfg.VecFPUs,
		pgLoad:  c.cfg.LoadPorts,
		pgStore: c.cfg.StorePorts,
	}
	var used [pgCount]int // also each ready list's issued prefix
	for issued := 0; issued < c.cfg.IssueWidth; issued++ {
		g := pgCount
		for k := range c.ready {
			if used[k] < caps[k] && used[k] < len(c.ready[k]) &&
				(g == pgCount || c.ready[k][used[k]].seq < c.ready[g][used[g]].seq) {
				g = portGroup(k)
			}
		}
		if g == pgCount {
			break
		}
		e := c.ready[g][used[g]]
		used[g]++
		e.issued = true
		c.iqCount--
		c.schedCnt[g]--
		c.activity++
		if c.tracing {
			c.rec.Emit(trace.Event{Cycle: c.cycle, Kind: trace.EvIssue, Arg0: int64(e.pc), Arg1: e.seq})
		}
		c.inflight = insertBySeq(c.inflight, e)
		c.execute(e)
		c.wake(e)
	}
	for g, n := range used {
		if n > 0 {
			c.ready[g] = c.ready[g][:copy(c.ready[g], c.ready[g][n:])]
		}
	}
}

// operands fills src with e's source values, read through its renamed
// physical registers.
func (c *Core) operands(e *robEntry, src *isa.Operands) {
	for i, cl := range e.srcClass[:3] {
		switch cl {
		case isa.ClassInt, isa.ClassFP:
			src.X[i] = c.regs[cl].val[e.srcPhys[i]]
		case isa.ClassVec:
			src.V[i] = &c.vecVal[e.srcPhys[i]]
		}
	}
	src.P = isa.AllLanes // the predicate read is Src1's or Pred's (isa.Inst.PredSrc)
	if e.srcClass[0] == isa.ClassPred {
		src.P = c.prVal[e.srcPhys[0]]
	} else if e.srcClass[3] == isa.ClassPred {
		src.P = c.prVal[e.srcPhys[3]]
	}
	src.VecBytes, src.MaxVecBytes = c.effVecBytes, c.cfg.VecBytes
	src.End, src.Last = e.sbEnd, e.sbLast
}

// execute computes the instruction's result (or starts its memory phase)
// and schedules writeback after the opcode latency.
func (c *Core) execute(e *robEntry) {
	in := e.inst
	op := in.Op
	lat := int64(op.Latency())
	e.execDoneAt = c.cycle + lat

	switch {
	case op == isa.OpSCfg:
		// Completes only once the SCROB has processed the part (one per
		// cycle); see complete().
		e.execDoneAt = c.cycle + 1

	case op == isa.OpNop || op == isa.OpHalt || e.ctl:
		// Effects apply at commit.

	default:
		var src isa.Operands
		c.operands(e, &src)
		if op.IsMem() {
			c.executeMem(e, &src)
		} else if !isa.Eval(in, &src, &e.res) {
			// Only a commit makes it an error: on a wrong path it is squashed.
			e.unimpl = true
		}
	}
}

// executeMem generates a load's or store's addresses: a load then waits on
// the memory phase, and a store resolves its store-queue entry.
func (c *Core) executeMem(e *robEntry, src *isa.Operands) {
	in := e.inst
	switch in.Op {
	case isa.OpLoad, isa.OpFLoad, isa.OpVLoad, isa.OpVLoadG:
		e.agDone = true
		if in.Op != isa.OpVLoadG {
			e.addr = in.Addr(src) // a gather's e.addr stays 0
		}
		e.memLanes = in.AccessLanes(src)
		e.memBytes = e.memLanes * int(in.W)
		if e.memBytes == 0 {
			// All lanes inactive: completes with an empty vector.
			e.res.Vec = isa.VecVal{W: in.W}
			e.memDone = true
			return
		}
		e.execDoneAt = 0 // completes via the memory phase
		switch in.Op {
		case isa.OpVLoadG:
			for l := range e.memLanes {
				a := in.LaneAddr(src, l)
				e.laneAddrs = append(e.laneAddrs, a)
				if ln := arch.LineOf(a); !slices.Contains(e.lines, ln) {
					e.lines = append(e.lines, ln)
				}
			}
		case isa.OpVLoad:
			for l := range e.memLanes {
				e.laneAddrs = append(e.laneAddrs, in.LaneAddr(src, l))
			}
			fallthrough
		default:
			e.lines = appendLineSpan(e.lines, e.addr, e.memBytes)
		}

	case isa.OpStore, isa.OpFStore, isa.OpVStore:
		e.agDone = true
		e.addr = in.Addr(src)
		lanes := in.AccessLanes(src)
		e.memBytes = lanes * int(in.W)
		if sq := c.sqEntryFor(e.seq); sq != nil {
			sq.addr = e.addr
			sq.bytes = e.memBytes
			sq.w = in.W
			sq.lanes = sq.lanes[:0]
			for l := range lanes {
				sq.lanes = append(sq.lanes, in.StoreLane(src, l))
			}
			sq.resolved = true
		}
		if e.memBytes > 0 {
			if _, fault := c.hier.TLB.Translate(e.addr); fault {
				e.fault = true
				e.faultAddr = e.addr
			}
		}

	default:
		e.unimpl = true
	}
}

// UnimplementedError ends a run that commits an op the core does not model
// (the functional tier rejects the same op when it reaches it).
type UnimplementedError struct {
	PC int
	Op string
}

func (u *UnimplementedError) Error() string {
	return fmt.Sprintf("cpu: pc %d: unimplemented op %s", u.PC, u.Op)
}

// appendLineSpan appends the cache lines covering [addr, addr+bytes) to dst.
func appendLineSpan(dst []uint64, addr uint64, bytes int) []uint64 {
	last := arch.LineOf(addr + uint64(bytes) - 1)
	for l := arch.LineOf(addr); l <= last; l += arch.LineSize {
		dst = append(dst, l)
	}
	return dst
}

// loadEligible reports whether a ROB entry is a load the memory phase still
// has to drive (issued, address generated, not yet complete or faulted).
func loadEligible(e *robEntry) bool {
	return e.isLoad && e.issued && !e.squashed && !e.memDone && e.agDone && !e.fault
}

// loadConflict runs the LSQ memory-dependence scan for a load. All older
// store addresses must be known (conservative memory dependence policy).
// Among resolved overlapping older stores the YOUNGEST one supplies the
// value: an exact scalar match forwards (fwd non-nil), anything else holds
// the load until that store commits (conflict true). memPhase acts on the
// result; memPhaseBusy uses the same scan so the skip decision can never
// disagree with the pipeline.
//
// Once a load's first line has issued, the scan's outcome can no longer
// change: it found every older store resolved and none overlapping, older
// stores only leave the queue, and forwarding needs linesIssued == 0. So
// the scan runs only before that.
func (c *Core) loadConflict(e *robEntry) (conflict bool, fwd *sqEntry) {
	if e.linesIssued > 0 {
		return false, nil
	}
	for _, s := range c.sq { // ordered oldest→youngest
		if s.seq >= e.seq || !s.live {
			continue
		}
		if !s.resolved {
			return true, nil
		}
		if s.bytes > 0 && overlaps(e.addr, e.memBytes, s.addr, s.bytes) {
			if e.memLanes == 1 && s.addr == e.addr && s.w == e.memW && len(s.lanes) == 1 && e.linesIssued == 0 {
				fwd = s // keep scanning: a younger store supersedes
			} else {
				return true, nil
			}
		}
		if e.inst.Op == isa.OpVLoadG && s.bytes > 0 {
			for _, a := range e.laneAddrs {
				if overlaps(a, int(e.memW), s.addr, s.bytes) {
					return true, nil
				}
			}
		}
	}
	return false, fwd
}

// loadStreamBlocked reports whether an output stream draining to the load's
// range blocks its first line issue (core-side coherence, paper §IV-A).
func (c *Core) loadStreamBlocked(e *robEntry) bool {
	if c.eng == nil || e.linesIssued != 0 {
		return false
	}
	if e.inst.Op == isa.OpVLoadG && len(e.laneAddrs) > 0 {
		for _, a := range e.laneAddrs {
			if c.eng.StoreMayOverlap(a, int(e.memW), e.storeStamp) {
				return true
			}
		}
		return false
	}
	return c.eng.StoreMayOverlap(e.addr, e.memBytes, e.storeStamp)
}

// memPhase drives issued loads through the LSQ: memory-dependence checks,
// stream-store overlap checks, translation, and line requests.
func (c *Core) memPhase() {
	ports := c.cfg.LoadPorts // line requests issuable this cycle
	for _, e := range c.lq {
		if !loadEligible(e) {
			continue
		}
		conflict, fwd := c.loadConflict(e)
		if !conflict && fwd != nil {
			e.res.Val = fwd.lanes[0]
			e.res.Vec = isa.VecFrom(e.memW, fwd.lanes)
			e.memDone = true
			e.fwdLatency = true
			e.execDoneAt = c.cycle + 4
			c.wake(e)
			c.Stats.LoadsExecuted++
			c.activity++
			continue
		}
		if conflict {
			continue
		}
		if c.loadStreamBlocked(e) {
			continue
		}
		if e.linesIssued == 0 {
			if _, fault := c.hier.TLB.Translate(e.addr); fault {
				e.fault = true
				e.faultAddr = e.addr
				e.execDoneAt = c.cycle + 1
				c.wake(e)
				c.activity++
				continue
			}
		}
		// Issue outstanding line requests within port bandwidth.
		for e.linesIssued < len(e.lines) && ports > 0 {
			r := c.newLineReq(e, e.lines[e.linesIssued])
			ok := c.hier.Access(c.cycle, &r.req)
			c.activity++ // both outcomes mutate: issue, or a reject tally below
			if !ok {
				c.lineReqFree = append(c.lineReqFree, r)
				break
			}
			e.linesIssued++
			e.linesPend++
			ports--
		}
	}
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// loadLineArrived completes one line of a load; when all lines are in, the
// value is read functionally and writeback scheduled. The request may
// outlive its instruction: once squashed, the entry is recycled and can
// hold a younger instruction, so the arrival must match the sequence number
// captured at issue.
func (c *Core) loadLineArrived(e *robEntry, seq int64, now int64) {
	c.activity++
	if e.seq != seq || e.squashed || e.memDone {
		return
	}
	e.linesPend--
	if e.linesPend > 0 || e.linesIssued < len(e.lines) {
		return
	}
	e.memDone = true
	c.Stats.LoadsExecuted++
	w := e.memW
	switch e.inst.Op {
	case isa.OpLoad, isa.OpFLoad:
		e.res.Val = c.hier.Mem.Read(e.addr, w)
	case isa.OpVLoad, isa.OpVLoadG:
		e.res.Vec = isa.NewVec(w, len(e.laneAddrs))
		for i, a := range e.laneAddrs {
			e.res.Vec.SetLane(i, c.hier.Mem.Read(a, w))
		}
	}
	e.execDoneAt = now + 1
	c.wake(e)
}

// wake lowers complete's bound to e's execDoneAt, once set (0 means the
// entry waits on the memory phase).
func (c *Core) wake(e *robEntry) {
	if e.execDoneAt != 0 && e.execDoneAt < c.doneAt {
		c.doneAt = e.execDoneAt
	}
}

// complete retires execution results into the physical registers, resolves
// branches (squashing on mispredicts), and feeds output-stream data to the
// engine. It walks the in-flight list, dropping the entries it completes,
// once the earliest result has matured.
func (c *Core) complete() {
	if c.cycle < c.doneAt {
		return
	}
	kept := c.inflight[:0]
	c.doneAt = mem.NoEvent
	for _, e := range c.inflight {
		if e.execDoneAt == 0 || e.execDoneAt > c.cycle ||
			e.cfgTok != nil && !c.eng.ConfigProcessed(e.cfgTok) { // configuration still queued in the SCROB
			kept = append(kept, e)
			c.wake(e)
			continue
		}
		e.done = true
		c.activity++
		if e.dstClass != isa.ClassNone {
			c.writeback(e)
		}
		if e.produce.consumed && c.eng != nil {
			c.eng.WriteStoreData(e.produce.slot, e.produce.seq, &e.res.Vec)
		}
		if e.isBranch && !e.brResolved {
			e.brResolved = true
			c.Stats.BranchesResolved++
			if e.inst.Op != isa.OpJ {
				c.trainPredictor(e.pc, e.res.Taken)
			}
			e.actTarget = e.pc + 1
			if e.res.Taken {
				e.actTarget = e.inst.Target
			}
			predTarget := e.pc + 1
			if e.predTaken {
				predTarget = e.inst.Target
			}
			if e.actTarget != predTarget {
				// The unvisited entries are younger: the squash takes them.
				c.Stats.Mispredicts++
				c.inflight = kept
				c.squashAfter(c.robIndex(e))
				c.redirect(e.actTarget, c.cfg.MispredictPenalty)
				return
			}
		}
	}
	c.inflight = kept
}

// robIndex returns e's position in the ROB.
func (c *Core) robIndex(e *robEntry) int {
	i := len(c.rob) - 1
	for c.rob[i] != e {
		i--
	}
	return i
}

// drainStores issues committed (senior) store lines to the memory system.
func (c *Core) drainStores() {
	for n := 0; n < c.cfg.StorePorts && len(c.drainQ) > 0; n++ {
		c.storeReq = mem.Req{Line: c.drainQ[0], Write: true}
		ok := c.hier.Access(c.cycle, &c.storeReq)
		c.activity++ // both outcomes mutate: a drained line, or a reject tally
		if !ok {
			return
		}
		c.drainQ = c.drainQ[1:]
	}
}
