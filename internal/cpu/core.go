package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
)

// portGroup classifies instructions by the functional-unit port they issue
// through.
type portGroup int

const (
	pgInt portGroup = iota
	pgVec
	pgLoad
	pgStore
	pgCount
)

func groupOf(op isa.Op) portGroup {
	switch op.Kind() {
	case isa.KindIntALU, isa.KindBranch, isa.KindNop, isa.KindStreamCfg, isa.KindStreamCtl:
		return pgInt
	case isa.KindFPALU, isa.KindVecALU:
		return pgVec
	case isa.KindLoad:
		return pgLoad
	case isa.KindStore:
		return pgStore
	}
	return pgInt
}

// streamRec records one stream consume/reserve performed at rename, for
// commit and ROB-walk undo.
type streamRec struct {
	slot     int
	seq      int64
	prevEnd  uint16
	prevLast bool
	consumed bool
	n        int
	phys     int // temporary vector physical register holding consumed data
}

// robEntry is one in-flight instruction. Entries are recycled through the
// core's free list once they retire or are squashed, so a callback that can
// outlive its instruction (a load's line request) captures seq at issue and
// checks it on arrival.
type robEntry struct {
	robState

	inst      *isa.Inst // into the program, which no one writes during a run
	laneAddrs []uint64  // gather element addresses
	lines     []uint64
	consumes  []streamRec
	cfgTok    *engine.ConfigToken
}

// robState is every pointer-free field of a ROB entry, so that newEntry
// clears them with a plain memory clear: clearing pointer fields takes a
// GC write barrier each while the collector marks.
type robState struct {
	seq      int64
	pc       int
	squashed bool

	dstClass isa.RegClass
	dstArch  uint8
	newPhys  int
	oldPhys  int

	srcPhys  [4]int
	srcClass [4]isa.RegClass

	issued     bool
	done       bool
	execDoneAt int64
	group      portGroup
	pending    int // sources not yet written; the entry is ready at 0

	predTaken  bool
	actTarget  int
	isBranch   bool
	brResolved bool

	isMem       bool
	isLoad      bool
	agDone      bool
	addr        uint64
	memW        arch.ElemWidth
	memLanes    int
	memBytes    int
	linesIssued int
	linesPend   int
	memDone     bool
	fwdLatency  bool
	sqHeld      bool

	res        isa.Result
	storeStamp int64 // engine reservation stamp at rename (load ordering)

	produce streamRec // consumed is false when no store chunk was reserved
	ctl     bool      // stream-control µOp (suspend/resume/stop/force)
	ctlUndo engine.CtlUndo

	sbEnd  uint16
	sbLast bool

	fault     bool
	unimpl    bool // op the core does not model: executed as a no-op, fails at commit
	faultAddr uint64
}

// lineReq is one line request of a load in flight: the request and the
// instruction and sequence number it was issued for. Requests are pooled
// per core; each binds its Done once, when first allocated.
type lineReq struct {
	req mem.Req
	e   *robEntry
	seq int64
}

type sqEntry struct {
	seq      int64
	addr     uint64
	bytes    int
	w        arch.ElemWidth
	lanes    []uint64
	resolved bool
	live     bool
}

// waiter is an entry waiting for a physical register to be written. It
// records the entry's seq because entries are recycled.
type waiter struct {
	e   *robEntry
	seq int64
}

type fetchedInst struct {
	pc        int
	predTaken bool
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg  Config
	prog *program.Program
	hier *mem.Hierarchy
	eng  *engine.Engine // nil for non-UVE baselines

	cycle int64
	seq   int64

	fetchPC     int
	fetchHoldTo int64
	fetchHalted bool
	decodeQ     []fetchedInst // window into decodeBuf (see enqueue)
	decodeBuf   []fetchedInst
	// Instruction-fetch timing through the L1-I: the front end stalls when
	// the current fetch line is not resident.
	ifetchReadyLine uint64
	ifetchHaveLine  bool
	ifetchBusy      bool
	// ifetchReq is reused for every L1-I miss: at most one is outstanding
	// (ifetchBusy), and its Done, bound once in New, installs its Line.
	ifetchReq mem.Req

	// Branch predictor: 2-bit counters, lazily initialized
	// backward-taken/forward-not-taken. Dense per-PC table (PCs are
	// instruction indices); bpUnset marks never-predicted slots.
	bp []uint8

	// regs is each register class's rename state, indexed by isa.RegClass;
	// the vector and predicate values live in vecVal and prVal.
	regs   [isa.ClassPred + 1]regFile
	vecVal []isa.VecVal
	prVal  []isa.PredVal

	rob      []*robEntry // oldest first; window into robBuf (see arch.Enqueue)
	robBuf   []*robEntry
	robFree  []*robEntry // retired and squashed entries, reused by rename
	iqCount  int
	schedCnt [pgCount]int

	// Scheduler state (Table I's per-port schedulers). Each port group's
	// ready list holds its unissued entries whose sources are all written,
	// oldest first; an entry with unwritten sources waits on each of them in
	// its register file's waiters and joins its ready list when the last
	// one is written. inflight holds the issued entries not yet done, and lq
	// the loads holding an LQ entry (a window into lqBuf), both in program
	// order. A squash truncates each list's youngest suffix.
	ready    [pgCount][]*robEntry
	inflight []*robEntry
	lq       []*robEntry
	lqBuf    []*robEntry
	// doneAt is at most the earliest non-zero execDoneAt in inflight
	// (mem.NoEvent when there is none): complete walks the list only from
	// that cycle on. Setting an execDoneAt lowers it (wake), and complete's
	// walk recomputes it. A squash only removes entries, which cannot lower
	// the earliest one, so it leaves the bound as it is.
	doneAt int64

	sq       []*sqEntry // program order; preallocated to SQSize
	sqFree   []*sqEntry
	drainQ   []uint64 // committed store lines awaiting issue; window into drainBuf
	drainBuf []uint64
	storeReq mem.Req // reused for each drained line (Access keeps no pointer)

	lineReqFree []*lineReq

	halted     bool
	haltCycle  int64
	lastCommit int64

	// effVecBytes is the effective vector length set by ss.setvl, capped by
	// the physical width; it applies to instructions renamed after the
	// setvl commits (the instruction serializes the pipeline).
	effVecBytes    int
	serializeInROB bool

	// rec receives instrumentation events; tracing caches rec.Enabled() so
	// hot paths pay a single bool test when tracing is off. lastBlock is the
	// rename stage's blocking cause this cycle, feeding the stall
	// classification.
	rec       trace.Recorder
	tracing   bool
	lastBlock BlockCause

	// Event-driven cycle skipping (Config.EventSkip): activity counts every
	// state-changing step the core takes; stepQuiet records whether the last
	// Step changed anything (core, engine or memory hierarchy). When a quiet
	// step leaves only future events behind, Run advances the clock directly to the earliest
	// one (see maybeSkip). None of this state is in Stats: skipping must be
	// invisible in every reported number.
	activity   uint64
	stepQuiet  bool
	skipOK     bool
	skipReason string
	skipLog    func(string)
	skipped    int64

	// cancelCheck, when set, is polled every cancelBatch cycles during Run
	// (and the post-halt drain). The check aborts the run by panicking with
	// a caller-owned typed error; the core itself attaches no meaning to
	// it. Batched polling keeps the hot loop free of per-cycle overhead and
	// composes with event skipping, which can advance the clock past many
	// check points at once (the next poll fires on the first iteration at
	// or beyond the threshold).
	cancelCheck func(cycle int64)
	nextCancel  int64

	Stats Stats
}

// cancelBatch is the cancellation polling granularity in cycles: coarse
// enough to be free next to the per-cycle pipeline work, fine enough that
// a context deadline stops a multi-million-cycle run promptly.
const cancelBatch = 4096

// New builds a core executing prog over the given memory hierarchy. eng may
// be nil (baseline cores without streaming support).
func New(cfg Config, prog *program.Program, h *mem.Hierarchy, eng *engine.Engine) *Core {
	c := &Core{cfg: cfg, prog: prog, hier: h, eng: eng, bp: make([]uint8, prog.Len()), rec: trace.Nop, doneAt: mem.NoEvent}
	for i := range c.bp {
		c.bp[i] = bpUnset
	}
	c.effVecBytes = cfg.VecBytes
	c.ifetchReq.Done = func(int64) {
		c.activity++
		c.ifetchBusy = false
		c.ifetchHaveLine = true
		c.ifetchReadyLine = c.ifetchReq.Line
	}

	c.regs[isa.ClassInt] = newRegFile(cfg.IntPRF, isa.NumIntRegs)
	c.regs[isa.ClassFP] = newRegFile(cfg.FPPRF, isa.NumFPRegs)
	c.regs[isa.ClassVec] = newRegFile(cfg.VecPRF, isa.NumVecRegs)
	c.regs[isa.ClassPred] = newRegFile(cfg.PredPRF, isa.NumPredRegs)
	c.regs[isa.ClassInt].val = make([]uint64, cfg.IntPRF)
	c.regs[isa.ClassFP].val = make([]uint64, cfg.FPPRF)
	c.vecVal = make([]isa.VecVal, cfg.VecPRF)
	c.prVal = make([]isa.PredVal, cfg.PredPRF)
	c.prVal[0] = isa.AllLanes // p0 hardwired to all-true

	// Fixed backing arrays: twice each bound, so the sliding windows move
	// back to the front at most once per bound's worth of dequeues.
	c.robBuf = make([]*robEntry, 2*cfg.ROBSize)
	c.lqBuf = make([]*robEntry, 2*cfg.LQSize)
	c.inflight = make([]*robEntry, 0, cfg.ROBSize)
	for g := range c.ready {
		c.ready[g] = make([]*robEntry, 0, cfg.SchedSize)
	}
	c.decodeBuf = make([]fetchedInst, 2*cfg.DecodeQueue)
	c.drainBuf = make([]uint64, 2*cfg.SQSize)
	c.sq = make([]*sqEntry, 0, cfg.SQSize)

	if eng != nil {
		eng.SyncStoresPending = func() bool {
			return len(c.sq) > 0 || len(c.drainQ) > 0
		}
	}
	return c
}

// SetIntReg initializes an architectural integer register before Run (the
// ABI by which the harness passes kernel arguments).
func (c *Core) SetIntReg(n int, v uint64) {
	if n == 0 {
		return
	}
	*c.regs[isa.ClassInt].arch(n) = v
}

// SetFPReg initializes an architectural FP register before Run.
func (c *Core) SetFPReg(n int, w arch.ElemWidth, f float64) {
	*c.regs[isa.ClassFP].arch(n) = isa.FloatBits(w, f)
}

// IntReg reads an architectural integer register (after Run).
func (c *Core) IntReg(n int) uint64 { return *c.regs[isa.ClassInt].arch(n) }

// FPReg reads an architectural FP register as a float of width w.
func (c *Core) FPReg(n int, w arch.ElemWidth) float64 {
	return isa.BitsFloat(w, *c.regs[isa.ClassFP].arch(n))
}

// SetRecorder directs instrumentation events at r (nil restores the no-op
// recorder). Call before Run; tracing must not change mid-execution.
func (c *Core) SetRecorder(r trace.Recorder) {
	if r == nil {
		r = trace.Nop
	}
	c.rec = r
	c.tracing = r.Enabled()
}

// SetCancel installs a cancellation check polled at cycle-batch
// granularity during Run. The check receives the current cycle; to abort
// the run it panics with a typed error the caller recovers (the sim layer
// uses *sim.CanceledError). Call before Run; nil clears the check.
func (c *Core) SetCancel(check func(cycle int64)) {
	c.cancelCheck = check
	c.nextCancel = 0
}

// pollCancel runs the installed cancellation check when the batched
// threshold has passed.
func (c *Core) pollCancel() {
	if c.cancelCheck != nil && c.cycle >= c.nextCancel {
		c.nextCancel = c.cycle + cancelBatch
		c.cancelCheck(c.cycle)
	}
}

// Cycle returns the current cycle.
func (c *Core) Cycle() int64 { return c.cycle }

// Halted reports whether the program has committed its halt.
func (c *Core) Halted() bool { return c.halted }

// Run executes the program to completion (halt committed and all stores
// drained) and returns the cycle count at halt commit — the performance
// figure used throughout §VI.
func (c *Core) Run() int64 {
	c.skipOK = c.cfg.EventSkip && !c.tracing
	if c.cfg.EventSkip && c.tracing {
		c.skipReason = "event skipping disabled: per-cycle trace recorder attached"
		if c.skipLog != nil {
			c.skipLog(c.skipReason)
		}
	}
	for !c.halted {
		c.Step()
		c.maybeSkip()
		c.pollCancel()
	}
	// Drain timing: outstanding stores and stream stores flow to memory.
	drained := false
	for i := 0; i < 1_000_000; i++ {
		pending := len(c.drainQ) > 0 || !c.hier.Quiesce()
		if c.eng != nil && c.eng.StoresPending() {
			pending = true
		}
		if !pending {
			drained = true
			break
		}
		c.Step()
		c.maybeSkip()
		c.pollCancel()
	}
	if !drained {
		panic(c.watchdogError("post-halt store drain stalled"))
	}
	return c.haltCycle
}

// Step advances the machine one cycle.
func (c *Core) Step() {
	c.cycle++
	c.Stats.Cycles = c.cycle
	c.Stats.ROBOccupancySum += int64(len(c.rob))

	// Snapshot for the stall classification: cycles in the post-halt store
	// drain are a class of their own, and "busy" means something retired
	// this cycle.
	wasHalted := c.halted
	committedBefore := c.Stats.Committed
	c.lastBlock = BlockNone
	actBefore := c.activity + c.hier.Activity()
	if c.eng != nil {
		actBefore += c.eng.Activity()
	}
	if c.tracing && c.eng != nil {
		// Engine methods called from rename (ConsumeChunk/ReserveStore) run
		// before the engine's own Tick; keep its event clock current.
		c.eng.SetNow(c.cycle)
	}

	c.commit()
	c.complete()
	c.memPhase()
	c.issue()
	c.rename()
	c.fetch()
	c.drainStores()

	if c.eng != nil {
		c.eng.Tick(c.cycle)
	}
	c.hier.Tick(c.cycle)

	actAfter := c.activity + c.hier.Activity()
	if c.eng != nil {
		actAfter += c.eng.Activity()
	}
	c.stepQuiet = actAfter == actBefore

	if c.tracing {
		c.rec.Emit(trace.Event{
			Cycle: c.cycle, Kind: trace.EvCycleClass,
			Arg0: int64(c.classifyCycle(wasHalted, c.Stats.Committed-committedBefore)),
		})
	}

	if !c.halted && c.cycle-c.lastCommit > c.cfg.Watchdog {
		panic(c.watchdogError(fmt.Sprintf("no commit for %d cycles", c.cfg.Watchdog)))
	}
	if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
		panic(c.watchdogError(fmt.Sprintf("cycle bound %d exceeded", c.cfg.MaxCycles)))
	}
}

// classifyCycle attributes the cycle that just finished to exactly one
// StallClass. Priority: post-halt drain, then useful work, then the rename
// stage's structural/stream cause, then the ROB head's state (memory-bound
// vs. still executing), and an empty ROB means the front end starved the
// backend. Because every pre-halt cycle lands in a non-drain class, the
// non-drain total equals the halt cycle — the Result.Cycles reconciliation
// the bench tests enforce.
func (c *Core) classifyCycle(wasHalted bool, committed uint64) trace.StallClass {
	switch {
	case wasHalted:
		return trace.ClassDrain
	case committed > 0:
		return trace.ClassBusy
	case c.lastBlock != BlockNone:
		return c.lastBlock.stallClass()
	case len(c.rob) > 0:
		if h := c.rob[0]; h.isMem && h.issued && !h.memDone && !h.done {
			return trace.ClassMemory
		}
		return trace.ClassExec
	}
	return trace.ClassFrontend
}

func (c *Core) robHeadDesc() string {
	if len(c.rob) == 0 {
		return "<empty>"
	}
	e := c.rob[0]
	return fmt.Sprintf("seq=%d pc=%d %s issued=%v done=%v", e.seq, e.pc, e.inst.Op.Name(), e.issued, e.done)
}

// lanes returns the effective vector lane count for width w (ss.setvl can
// narrow it below the physical width).
func (c *Core) lanes(w arch.ElemWidth) int { return arch.LanesFor(c.effVecBytes, w) }

// EffVecBytes returns the current effective vector length in bytes.
func (c *Core) EffVecBytes() int { return c.effVecBytes }

// --- physical register helpers ---

// regFile is one register class's rename state: the map from architectural
// to physical registers, the free physical registers, which physical
// registers hold their value and the entries waiting on each of the others,
// and, for the scalar classes, the values.
type regFile struct {
	rat     []int
	free    []int
	ready   []bool
	waiters [][]waiter
	val     []uint64
}

// newRegFile maps the arch architectural registers onto the first physical
// ones, which hold their (zero) values, and frees the rest.
func newRegFile(phys, arch int) regFile {
	r := regFile{rat: make([]int, arch), ready: make([]bool, phys), waiters: make([][]waiter, phys)}
	for i := range r.rat {
		r.rat[i] = i
		r.ready[i] = true
	}
	for i := arch; i < phys; i++ {
		r.free = append(r.free, i)
	}
	return r
}

// arch returns the value of scalar architectural register n.
func (r *regFile) arch(n int) *uint64 { return &r.val[r.rat[n]] }

// writeback writes an entry's result into its destination register and
// wakes the entries waiting on it.
func (c *Core) writeback(e *robEntry) {
	p := e.newPhys
	switch e.dstClass {
	case isa.ClassVec:
		c.vecVal[p] = e.res.Vec
	case isa.ClassPred:
		c.prVal[p] = e.res.Pred
	default:
		c.regs[e.dstClass].val[p] = e.res.Val
	}
	c.markReady(e.dstClass, p)
}

// markReady makes a physical register readable and wakes its waiters: an
// entry whose last unwritten source this was joins its ready list.
func (c *Core) markReady(class isa.RegClass, phys int) {
	r := &c.regs[class]
	r.ready[phys] = true
	ws := r.waiters[phys]
	for _, w := range ws {
		if w.e.seq != w.seq || w.e.squashed {
			continue
		}
		if w.e.pending--; w.e.pending == 0 {
			c.ready[w.e.group] = insertBySeq(c.ready[w.e.group], w.e)
		}
	}
	r.waiters[phys] = ws[:0]
}

// dispatch enters a renamed entry into the scheduler: it waits on each
// unwritten source, or joins its group's ready list when none is left. The
// entry is the youngest, so appending keeps the list in age order.
func (c *Core) dispatch(e *robEntry) {
	for i, cl := range e.srcClass {
		if cl == isa.ClassNone || c.regs[cl].ready[e.srcPhys[i]] {
			continue
		}
		e.pending++
		ws := &c.regs[cl].waiters[e.srcPhys[i]]
		*ws = append(*ws, waiter{e: e, seq: e.seq})
	}
	if e.pending == 0 {
		c.ready[e.group] = append(c.ready[e.group], e)
	}
}

// insertBySeq inserts e into the age-ordered list l.
func insertBySeq(l []*robEntry, e *robEntry) []*robEntry {
	l = append(l, e)
	i := len(l) - 1
	for ; i > 0 && l[i-1].seq > e.seq; i-- {
		l[i] = l[i-1]
	}
	l[i] = e
	return l
}

// dropYounger truncates the age-ordered list l to its entries no younger
// than seq.
func dropYounger(l []*robEntry, seq int64) []*robEntry {
	n := len(l)
	for n > 0 && l[n-1].seq > seq {
		n--
	}
	return l[:n]
}

func (c *Core) allocPhys(class isa.RegClass) (int, bool) {
	r := &c.regs[class]
	n := len(r.free)
	if n == 0 {
		return 0, false
	}
	p := r.free[n-1]
	r.free = r.free[:n-1]
	// Anything still waiting on p waited on a squashed incarnation.
	r.waiters[p] = r.waiters[p][:0]
	r.ready[p] = false
	return p, true
}

func (c *Core) freePhys(class isa.RegClass, p int) {
	// Never recycle the hardwired registers' physical register 0.
	if p < 0 || p == 0 && hardwired(isa.Reg{Class: class}) {
		return
	}
	c.regs[class].free = append(c.regs[class].free, p)
}

// hardwired reports whether r is x0 or p0, which map to physical register 0
// of their class from the start: it is never freed.
func hardwired(r isa.Reg) bool {
	return r.N == 0 && (r.Class == isa.ClassInt || r.Class == isa.ClassPred)
}

// --- entry pools ---

// newEntry returns a ROB entry with cleared state and empty slices,
// reusing a retired or squashed one (and its slices' capacity) when
// available; tryRename sets its inst and cfgTok. At most ROBSize entries
// are ever live, which bounds the pool.
func (c *Core) newEntry() *robEntry {
	n := len(c.robFree)
	if n == 0 {
		return new(robEntry)
	}
	e := c.robFree[n-1]
	c.robFree = c.robFree[:n-1]
	e.robState = robState{}
	e.laneAddrs, e.lines, e.consumes = e.laneAddrs[:0], e.lines[:0], e.consumes[:0]
	return e
}

// newSQEntry returns a live store-queue entry for seq, reusing a removed one
// (and its lane buffer) when available.
func (c *Core) newSQEntry(seq int64) *sqEntry {
	n := len(c.sqFree)
	if n == 0 {
		return &sqEntry{seq: seq, live: true}
	}
	s := c.sqFree[n-1]
	c.sqFree = c.sqFree[:n-1]
	*s = sqEntry{seq: seq, live: true, lanes: s.lanes[:0]}
	return s
}

// newLineReq returns a pooled request for one line of load e. Its Done
// returns it to the pool and reports the arrival with the sequence number
// captured here.
func (c *Core) newLineReq(e *robEntry, line uint64) *lineReq {
	var r *lineReq
	if n := len(c.lineReqFree); n > 0 {
		r = c.lineReqFree[n-1]
		c.lineReqFree = c.lineReqFree[:n-1]
	} else {
		r = new(lineReq)
		r.req.Done = func(at int64) {
			c.lineReqFree = append(c.lineReqFree, r)
			c.loadLineArrived(r.e, r.seq, at)
		}
	}
	r.req.Line, r.req.PC = line, e.pc
	r.e, r.seq = e, e.seq
	return r
}
