package cpu

import (
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/trace"
)

// --- fetch with branch prediction ---

// bpUnset marks a branch-predictor slot that has never been consulted
// (2-bit counters only reach 0..3, so 0xFF is free as a sentinel).
const bpUnset = 0xFF

// predict returns the taken/not-taken prediction for a branch at pc, using
// 2-bit counters initialized backward-taken / forward-not-taken.
func (c *Core) predict(pc int, in *isa.Inst) bool {
	if in.Op == isa.OpJ {
		return true
	}
	if pc < 0 || pc >= len(c.bp) {
		// Wrong-path fetch outside the program: static prediction only.
		return in.Target <= pc
	}
	ctr := c.bp[pc]
	if ctr == bpUnset {
		if in.Target <= pc {
			ctr = 2 // backward: loop branch, weakly taken
		} else {
			ctr = 1
		}
		c.bp[pc] = ctr
	}
	return ctr >= 2
}

func (c *Core) trainPredictor(pc int, taken bool) {
	if pc < 0 || pc >= len(c.bp) {
		return
	}
	ctr := c.bp[pc]
	if ctr == bpUnset {
		ctr = 0
	}
	if taken {
		if ctr < 3 {
			ctr++
		}
	} else if ctr > 0 {
		ctr--
	}
	c.bp[pc] = ctr
}

// instLine maps a program counter to its instruction-cache line (4-byte
// encodings, as in the base RISC ISA).
func instLine(pc int) uint64 { return arch.LineOf(uint64(pc) * 4) }

// fetchLineReady drives instruction fetch through the L1-I. Hits are fully
// pipelined (no stall); the front end stalls only while a missing line is
// being filled from the L2.
func (c *Core) fetchLineReady(pc int) bool {
	line := instLine(pc)
	if c.ifetchHaveLine && c.ifetchReadyLine == line {
		return true
	}
	if c.hier.L1I.Contains(line) {
		c.ifetchHaveLine = true
		c.ifetchReadyLine = line
		c.activity++
		return true
	}
	if c.ifetchBusy {
		// Pure stall: nothing changes until the fill's Done fires. maybeSkip
		// compensates this tally for skipped cycles (fetchWouldStall).
		c.Stats.FetchStallCycles++
		if c.tracing {
			c.rec.Emit(trace.Event{Cycle: c.cycle, Kind: trace.EvFetchStall})
		}
		return false
	}
	c.ifetchBusy = true
	c.activity++ // request issue (or the reject tally it triggers below)
	c.ifetchReq.Line = line
	if !c.hier.FetchInst(c.cycle, &c.ifetchReq) {
		c.ifetchBusy = false
	}
	c.Stats.FetchStallCycles++
	if c.tracing {
		c.rec.Emit(trace.Event{Cycle: c.cycle, Kind: trace.EvFetchStall})
	}
	return false
}

func (c *Core) fetch() {
	if c.fetchHalted || c.cycle < c.fetchHoldTo {
		return
	}
	for i := 0; i < c.cfg.FetchWidth && len(c.decodeQ) < c.cfg.DecodeQueue; i++ {
		if !c.fetchLineReady(c.fetchPC) {
			return
		}
		in := c.prog.At(c.fetchPC)
		pred := false
		next := c.fetchPC + 1
		if in.Op.IsBranch() {
			pred = c.predict(c.fetchPC, in)
			if pred {
				next = in.Target
			}
		}
		c.decodeQ = arch.Enqueue(c.decodeQ, c.decodeBuf, fetchedInst{pc: c.fetchPC, predTaken: pred})
		c.fetchPC = next
		c.activity++
		if in.Op == isa.OpHalt {
			// Stop fetching past a (possibly speculative) halt; a squash
			// clears this when the halt was on the wrong path.
			c.fetchHalted = true
			break
		}
	}
}

// redirect points fetch at pc after a mispredict or exception.
func (c *Core) redirect(pc int, penalty int) {
	c.activity++
	c.fetchPC = pc
	c.fetchHoldTo = c.cycle + int64(penalty)
	c.fetchHalted = false
	c.decodeQ = c.decodeQ[:0]
	c.Stats.FetchRedirects++
	if c.tracing {
		c.rec.Emit(trace.Event{Cycle: c.cycle, Kind: trace.EvFetchRedirect, Arg0: int64(pc)})
	}
}

// --- rename/dispatch (where UVE streams meet the pipeline, paper §IV-A) ---

func (c *Core) rename() {
	blocked := BlockNone
	for n := 0; n < c.cfg.FetchWidth && len(c.decodeQ) > 0; n++ {
		f := c.decodeQ[0]
		cause := c.tryRename(f, c.prog.At(f.pc))
		if cause != BlockNone {
			blocked = cause
			break
		}
		c.decodeQ = c.decodeQ[1:]
		c.Stats.Renamed++
		c.activity++
	}
	if blocked != BlockNone {
		c.Stats.RenameBlockCause[blocked]++
		if blocked == BlockStreamData || blocked == BlockStreamStore {
			c.Stats.StreamWait++
		} else {
			c.Stats.RenameBlocked++
		}
		c.lastBlock = blocked
		if c.tracing {
			c.rec.Emit(trace.Event{
				Cycle: c.cycle, Kind: trace.EvRenameBlock,
				Arg0: int64(blocked.stallClass()),
			})
		}
	}
}

// tryRename attempts to rename and dispatch one instruction; it returns the
// blocking cause on a resource stall.
func (c *Core) tryRename(f fetchedInst, in *isa.Inst) BlockCause {
	if len(c.rob) >= c.cfg.ROBSize {
		return BlockROB
	}
	// ss.setvl serializes: it renames alone (after the window drains) and
	// nothing younger renames until it commits, so the new vector length
	// applies to every subsequent instruction.
	if c.serializeInROB {
		return BlockROB
	}
	if in.Op == isa.OpSSetVL && len(c.rob) > 0 {
		return BlockROB
	}
	if c.iqCount >= c.cfg.IQSize {
		return BlockIQ
	}
	group := groupOf(in.Op)
	if c.schedCnt[group] >= c.cfg.SchedSize {
		return BlockScheduler
	}
	isMem := in.Op.IsMem()
	isLoad := isMem && !in.Op.IsStore()
	if isLoad && len(c.lq) >= c.cfg.LQSize {
		return BlockLQ
	}
	if isMem && !isLoad && len(c.sq) >= c.cfg.SQSize {
		return BlockSQ
	}

	// Stream interactions: identify stream sources (consumes) and a stream
	// destination (reservation) before allocating anything.
	type consumePlan struct {
		u    int
		slot int
	}
	var plans [3]consumePlan
	consumes := plans[:0]
	produceSlot := -1
	if c.eng != nil && in.Op.HasDataOperands() {
		var seen uint32 // vector registers already planned (NumVecRegs = 32)
		for _, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
			if r.Class != isa.ClassVec || seen&(1<<r.N) != 0 {
				continue
			}
			// The destructive read of the old destination in fmla-style ops
			// is a regular register read, not a stream consume, when the
			// destination is an output stream.
			if slot, ok := c.eng.StreamFor(int(r.N)); ok && c.eng.IsLoad(slot) {
				seen |= 1 << r.N
				consumes = append(consumes, consumePlan{u: int(r.N), slot: slot})
			}
		}
		if in.Dst.Class == isa.ClassVec {
			if slot, ok := c.eng.StreamFor(int(in.Dst.N)); ok && !c.eng.IsLoad(slot) {
				produceSlot = slot
			}
		}
	}

	// Readiness checks before any allocation.
	for _, cp := range consumes {
		if !c.eng.CanConsume(cp.slot) {
			return BlockStreamData
		}
	}
	if produceSlot >= 0 && !c.eng.CanReserve(produceSlot) {
		return BlockStreamStore
	}
	// Consumed chunks take vector temporaries. A vector destination counts
	// even on a stream configuration or control µOp, which renames none.
	needVec := len(consumes)
	if in.Dst.Class == isa.ClassVec {
		needVec++
	}
	if needVec > len(c.regs[isa.ClassVec].free) {
		return BlockPRF
	}
	if cl := in.Dst.Class; cl != isa.ClassNone && cl != isa.ClassVec && !hardwired(in.Dst) &&
		in.Op.HasDataOperands() && len(c.regs[cl].free) == 0 {
		return BlockPRF
	}

	seq := c.seq
	c.seq++

	// Stream configuration µOps enter the SCROB at rename. A full SCROB
	// still consumes the sequence number (maybeSkip relies on that).
	var cfgTok *engine.ConfigToken
	if in.Op == isa.OpSCfg {
		tok, ok := c.eng.RenameConfigPart(in.Cfg)
		if !ok {
			return BlockSCROB
		}
		cfgTok = tok
	}

	e := c.newEntry()
	e.seq = seq
	e.pc = f.pc
	e.inst = in
	e.predTaken = f.predTaken
	e.group = group
	e.isBranch = in.Op.IsBranch()
	e.isMem = isMem
	e.isLoad = isLoad
	e.memW = in.W
	e.cfgTok = cfgTok

	// Resolve sources through the RAT (or through stream consumes).
	if in.Op.HasDataOperands() {
		srcs := [...]isa.Reg{in.Src1, in.Src2, in.Src3, in.Pred}
		for i, r := range srcs {
			e.srcClass[i] = r.Class
			if r.Class == isa.ClassNone {
				continue
			}
			e.srcPhys[i] = c.regs[r.Class].rat[r.N]
		}
		// Perform the stream consumes: data is read into fresh physical
		// registers at rename (paper A1: minimal load-to-use latency).
		for _, cp := range consumes {
			view, ok := c.eng.ConsumeChunk(cp.slot)
			if !ok {
				panic("cpu: CanConsume/ConsumeChunk disagree")
			}
			phys, _ := c.allocPhys(isa.ClassVec)
			c.vecVal[phys] = view.Data
			c.markReady(isa.ClassVec, phys)
			rec := streamRec{
				slot: cp.slot, seq: view.Seq,
				prevEnd: view.PrevEnd, prevLast: view.PrevLast,
				consumed: view.Consumed, n: view.N,
			}
			rec.phys = phys
			e.consumes = append(e.consumes, rec)
			if view.Fault {
				e.fault = true
				e.faultAddr = view.FaultAddr
			}
			for i, r := range srcs {
				if r.Class == isa.ClassVec && int(r.N) == cp.u {
					e.srcPhys[i] = phys
					e.srcClass[i] = isa.ClassVec
				}
			}
		}
		if produceSlot >= 0 {
			view, ok := c.eng.ReserveStore(produceSlot)
			if !ok {
				panic("cpu: CanReserve/ReserveStore disagree")
			}
			e.produce = streamRec{
				slot: produceSlot, seq: view.Seq,
				prevEnd: view.PrevEnd, prevLast: view.PrevLast,
				consumed: view.Consumed, n: view.N,
			}
			if view.Fault {
				e.fault = true
				e.faultAddr = view.FaultAddr
			}
		}
		// Destination rename.
		if in.HasDst() && !(in.Dst.Class == isa.ClassInt && in.Dst.IsZero()) {
			phys, ok := c.allocPhys(in.Dst.Class)
			if !ok {
				panic("cpu: PRF availability checked but allocation failed")
			}
			e.dstClass = in.Dst.Class
			e.dstArch = in.Dst.N
			e.newPhys = phys
			rat := c.regs[in.Dst.Class].rat
			e.oldPhys = rat[in.Dst.N]
			rat[in.Dst.N] = phys
		}
	}

	// Stream-conditional branches snapshot the rename-time stream flags
	// (exact in program order, paper §IV-A "Stream Iteration").
	if in.Op.IsStreamBranch() && c.eng != nil {
		u := int(in.Src1.N)
		if slot, ok := c.eng.StreamFor(u); ok {
			e.sbEnd, e.sbLast = c.eng.SpecFlags(slot)
		} else {
			e.sbEnd, e.sbLast = c.eng.LastFlags(u)
		}
	}

	// Stream control takes effect at rename (younger instructions see the
	// new association in program order); squash restores, ss.stop releases
	// at commit.
	if c.eng != nil {
		switch in.Op {
		case isa.OpSSuspend:
			e.ctl = true
			e.ctlUndo = c.eng.RenameSuspend(int(in.Dst.N))
		case isa.OpSResume:
			e.ctl = true
			e.ctlUndo = c.eng.RenameResume(int(in.Dst.N))
		case isa.OpSStop:
			e.ctl = true
			e.ctlUndo = c.eng.RenameStop(int(in.Dst.N))
		case isa.OpSForce:
			e.ctl = true
		}
	}
	if in.Op == isa.OpSSetVL {
		c.serializeInROB = true
	}

	if isLoad {
		c.lq = arch.Enqueue(c.lq, c.lqBuf, e)
		if c.eng != nil {
			e.storeStamp = c.eng.ReserveStamp()
		}
	}
	if isMem && !isLoad {
		c.sq = append(c.sq, c.newSQEntry(e.seq))
		e.sqHeld = true
	}
	c.iqCount++
	c.schedCnt[group]++
	c.rob = arch.Enqueue(c.rob, c.robBuf, e)
	c.dispatch(e)
	return BlockNone
}

// sqEntryFor finds the live SQ entry of a store by sequence number.
func (c *Core) sqEntryFor(seq int64) *sqEntry {
	for _, s := range c.sq {
		if s.seq == seq {
			return s
		}
	}
	return nil
}
