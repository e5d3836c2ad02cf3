package cpu

import (
	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// commit retires up to CommitWidth finished instructions in order, applying
// the architectural side effects: store writes become visible, stream
// consumes/produces/configs commit to the engine, stream control executes,
// and precise exceptions are taken.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && len(c.rob) > 0; n++ {
		e := c.rob[0]
		if !e.done {
			return
		}
		if e.fault {
			c.takeFault(e)
			return
		}
		if e.unimpl {
			panic(&UnimplementedError{PC: e.pc, Op: e.inst.Op.Name()})
		}
		in := e.inst

		for i := range e.consumes {
			rec := &e.consumes[i]
			if rec.consumed {
				c.eng.CommitConsume(rec.slot, rec.seq)
			}
			c.freePhys(isa.ClassVec, rec.phys)
		}
		if e.produce.consumed {
			c.eng.CommitStore(e.produce.slot, e.produce.seq, c.cycle)
		}
		if e.cfgTok != nil {
			c.eng.CommitConfigPart(e.cfgTok)
		}
		if e.ctl && in.Op == isa.OpSStop {
			c.eng.CommitStop(int(in.Dst.N), e.ctlUndo)
		}
		if e.isMem && !e.isLoad {
			c.commitStore(e)
		}
		if e.isLoad {
			c.lq = c.lq[1:] // e is the oldest load
		}
		if e.dstClass != isa.ClassNone {
			c.freePhys(e.dstClass, e.oldPhys)
		}
		if in.Op == isa.OpSSetVL {
			c.effVecBytes = int(e.res.Val) * int(in.W)
			c.serializeInROB = false
			if c.eng != nil {
				c.eng.SetVL(c.effVecBytes)
			}
		}

		c.rob = c.rob[1:]
		c.activity++
		c.Stats.Committed++
		c.Stats.CommittedByKind[in.Op.Kind()]++
		c.lastCommit = c.cycle
		if c.tracing {
			c.rec.Emit(trace.Event{Cycle: c.cycle, Kind: trace.EvCommit, Arg0: int64(e.pc), Arg1: e.seq})
		}
		halt := in.Op == isa.OpHalt
		c.robFree = append(c.robFree, e)
		if halt {
			c.halted = true
			c.haltCycle = c.cycle
			return
		}
	}
}

// commitStore makes a scalar/vector store architecturally visible and
// queues its lines for timing drain.
func (c *Core) commitStore(e *robEntry) {
	sq := c.sqEntryFor(e.seq)
	if sq == nil || !sq.resolved {
		panic("cpu: committing unresolved store")
	}
	for i, lane := range sq.lanes {
		c.hier.Mem.Write(sq.addr+uint64(i)*uint64(sq.w), sq.w, lane)
	}
	if c.eng != nil {
		c.eng.NoteScalarStore(e.pc, sq.addr, len(sq.lanes)*int(sq.w))
	}
	if sq.bytes > 0 {
		last := arch.LineOf(sq.addr + uint64(sq.bytes) - 1)
		for line := arch.LineOf(sq.addr); line <= last; line += arch.LineSize {
			c.drainQ = arch.Enqueue(c.drainQ, c.drainBuf, line)
		}
	}
	sq.live = false
	c.removeSQ(e.seq)
	e.sqHeld = false
	c.Stats.StoresCommitted++
}

// removeSQ drops a store's SQ entry, keeping the rest in program order, and
// recycles it.
func (c *Core) removeSQ(seq int64) {
	for i, s := range c.sq {
		if s.seq == seq {
			c.sq = append(c.sq[:i], c.sq[i+1:]...)
			c.sqFree = append(c.sqFree, s)
			return
		}
	}
}

// takeFault implements precise page-fault handling at commit (paper §IV-A
// "Exception Handling"): squash everything, run the OS model (map the page,
// flush the TLB), rewind streams to their commit point, and re-execute from
// the faulting instruction.
func (c *Core) takeFault(e *robEntry) {
	c.Stats.PageFaults++
	faultPC := e.pc
	faultAddr := e.faultAddr
	if c.tracing {
		c.rec.Emit(trace.Event{
			Cycle: c.cycle, Kind: trace.EvPageFault,
			Arg0: int64(faultPC), Arg1: int64(faultAddr),
		})
	}
	c.squashAfter(-1) // squash the whole window including the faulting entry
	c.hier.Mem.MapPage(faultAddr)
	c.hier.TLB.Flush()
	if c.eng != nil {
		c.eng.ReloadAllFromCommit()
	}
	c.redirect(faultPC, c.cfg.FaultPenalty)
	c.lastCommit = c.cycle
}

// squashAfter removes all ROB entries younger than index keep (exclusive),
// walking youngest-first and undoing rename, LSQ and stream effects — the
// paper's ROB-walk recovery with stream-pointer reversal (§IV-A
// "Miss-Speculation").
func (c *Core) squashAfter(keep int) {
	if c.tracing && len(c.rob)-1 > keep {
		c.rec.Emit(trace.Event{
			Cycle: c.cycle, Kind: trace.EvSquash, Arg0: int64(len(c.rob) - 1 - keep),
		})
	}
	keepSeq := int64(-1)
	if keep >= 0 {
		keepSeq = c.rob[keep].seq
	}
	for i := len(c.rob) - 1; i > keep; i-- {
		e := c.rob[i]
		e.squashed = true
		c.Stats.Squashed++

		if !e.issued {
			c.iqCount--
			c.schedCnt[e.group]--
		}
		if e.sqHeld {
			c.removeSQ(e.seq)
			e.sqHeld = false
		}
		if e.produce.consumed {
			c.eng.Unconsume(e.produce.slot, e.produce.prevEnd, e.produce.prevLast)
		}
		for j := len(e.consumes) - 1; j >= 0; j-- {
			rec := &e.consumes[j]
			if rec.consumed {
				c.eng.Unconsume(rec.slot, rec.prevEnd, rec.prevLast)
			}
			c.freePhys(isa.ClassVec, rec.phys)
		}
		if e.cfgTok != nil {
			c.eng.SquashConfigPart(e.cfgTok)
		}
		if e.ctl && e.inst.Op != isa.OpSForce {
			c.eng.SquashCtl(e.ctlUndo)
		}
		if e.dstClass != isa.ClassNone {
			c.regs[e.dstClass].rat[e.dstArch] = e.oldPhys
			c.freePhys(e.dstClass, e.newPhys)
		}
		if e.inst.Op == isa.OpSSetVL {
			c.serializeInROB = false
		}
		c.robFree = append(c.robFree, e)
	}
	c.rob = c.rob[:keep+1]
	for g := range c.ready {
		c.ready[g] = dropYounger(c.ready[g], keepSeq)
	}
	c.inflight = dropYounger(c.inflight, keepSeq)
	c.lq = dropYounger(c.lq, keepSeq)
}
