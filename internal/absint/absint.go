package absint

import (
	"math/bits"
	"sort"

	"repro/internal/arch"
	"repro/internal/cfg"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// Options configures one analysis run.
type Options struct {
	// Entry presets integer registers with known concrete entry values
	// (kernel arguments). Every other register starts at Top.
	Entry map[int]uint64
	// VecBytes is the physical vector width when known; it tightens
	// lane-dependent bounds (ss.setvl/incvl results, chunk-level trip
	// counts). Zero assumes the architected maximum, which is sound
	// because effective widths only shrink.
	VecBytes int
}

// widenDelay is the number of times a header in-state register may grow
// before it is widened straight to Top. Branch refinement usually closes
// loops well before this; the jump guarantees termination regardless.
const widenDelay = 16

// stepBudget caps fixpoint edge-merge operations per program point. On
// overrun the analysis degrades every reachable point to all-Top (sound,
// just useless) instead of spinning.
const stepBudget = 1 << 13

// predFact records what a whilelt told us about a predicate register:
// the predicate has an active first lane iff (signed) reg < some value
// drawn from bound. The fact dies when reg or the predicate is redefined.
type predFact struct {
	valid bool
	reg   uint8
	bound Interval
}

// state is the abstract machine state at one program point: one interval
// per integer register plus per-predicate whilelt facts. live marks
// reachability; the zero state is unreachable-bottom.
type state struct {
	live  bool
	regs  [isa.NumIntRegs]Interval
	facts [isa.NumPredRegs]predFact
}

// reg reads an operand as funcsim's operandU64 does: an integer register
// its interval, an FP register an unknown bit pattern, and an absent
// operand 0.
func (s *state) reg(r isa.Reg) Interval {
	switch r.Class {
	case isa.ClassInt:
		return s.regs[r.N]
	case isa.ClassFP:
		return Top()
	}
	return Point(0)
}

// setReg writes an interval, keeping x0 hardwired to zero.
func (s *state) setReg(n uint8, iv Interval) {
	if n != 0 {
		s.regs[n] = iv
	}
}

// killFactsOn invalidates every whilelt fact whose tracked register is
// redefined.
func (s *state) killFactsOn(n uint8) {
	for i := range s.facts {
		if s.facts[i].valid && s.facts[i].reg == n {
			s.facts[i].valid = false
		}
	}
}

// mergeState joins src into dst (plain interval union, fact agreement).
// It reports whether dst changed.
func mergeState(dst *state, src *state) bool {
	if !src.live {
		return false
	}
	if !dst.live {
		*dst = *src
		return true
	}
	changed := false
	for i := range dst.regs {
		u := dst.regs[i].Union(src.regs[i])
		if u != dst.regs[i] {
			dst.regs[i] = u
			changed = true
		}
	}
	for i := range dst.facts {
		m := mergeFact(dst.facts[i], src.facts[i])
		if m != dst.facts[i] {
			dst.facts[i] = m
			changed = true
		}
	}
	return changed
}

// mergeFact joins two predicate facts: they survive a merge only when both
// sides constrain the same register (bounds union).
func mergeFact(a, b predFact) predFact {
	if !a.valid || !b.valid || a.reg != b.reg {
		return predFact{}
	}
	return predFact{valid: true, reg: a.reg, bound: a.bound.Union(b.bound)}
}

// loopInfo is one natural loop with its proved bound: trip, when non-zero,
// bounds body executions per loop entry. MaxExec multiplies trips only
// along well-nested loops.
type loopInfo struct {
	cfg.Loop
	trip uint64
}

// Result holds the fixpoint. The zero/nil Result answers Top/unknown.
type Result struct {
	n         int
	in        []state
	loops     []loopInfo
	loopOf    []int
	reducible bool
}

type analysis struct {
	o      Options
	n      int
	insts  []isa.Inst
	g      *cfg.Graph
	forest *cfg.Forest
	loops  []loopInfo

	// Stream facts for trip bounds.
	sites map[int][]cfg.Site // stream → completed, reassembled config runs
	ctl   map[int]bool       // stream with a config fault or named by suspend/resume/stop/force
	anyVL bool               // program contains ss.setvl

	// Case-A induction clamps: header pc → reg → max per-iteration step.
	induction map[int]map[int]uint64
	tripAt    map[int]uint64 // header pc → Case-A trip, for clamping

	in       []state
	inPre    []state
	widenCnt [][isa.NumIntRegs]uint8

	// thresholds are the landing sites for widening: program constants
	// (immediates, entry values) and their neighbors. Sorted ascending.
	thresholds []uint64
}

// Analyze runs the abstract interpreter to fixpoint.
func Analyze(p *program.Program, o Options) *Result {
	n := p.Len()
	if n == 0 {
		return &Result{n: 0, reducible: true}
	}
	a := &analysis{o: o, n: n, insts: p.Insts, g: cfg.New(p.Insts), in: make([]state, n)}
	a.forest = a.g.Loops()
	a.loops = make([]loopInfo, len(a.forest.Loops))
	for i, l := range a.forest.Loops {
		a.loops[i].Loop = l
	}
	if a.operandsValid() {
		a.collectStreams()
		a.caseATrips()
		a.collectThresholds()
		a.fixpoint()
		a.scalarTrips()
	} else {
		a.degradeToTop() // a register that does not exist has no value to track
	}
	return &Result{n: n, in: a.in, loops: a.loops, loopOf: a.forest.LoopOf, reducible: a.forest.Reducible}
}

// operandsValid reports whether every operand names an existing register.
func (a *analysis) operandsValid() bool {
	var buf [5]isa.Reg
	for pc := range a.insts {
		in := &a.insts[pc]
		for _, r := range append(in.Srcs(buf[:0]), in.Dst) {
			if r.Class != isa.ClassNone && !r.Valid() {
				return false
			}
		}
	}
	return true
}

// --- stream configuration facts ---

// collectStreams records each stream's reassembled configuration runs.
// A stream with any configuration fault or failed reassembly is poisoned:
// its runs cannot be trusted to describe what the engine will stream.
func (a *analysis) collectStreams() {
	a.sites = map[int][]cfg.Site{}
	a.ctl = map[int]bool{}
	sites, faults := cfg.StreamConfigs(a.insts)
	for _, f := range faults {
		a.ctl[f.Stream] = true
	}
	for _, s := range sites {
		if s.Err != nil {
			a.ctl[s.Stream] = true
		} else {
			a.sites[s.Stream] = append(a.sites[s.Stream], s)
		}
	}
	for pc := range a.insts {
		in := &a.insts[pc]
		switch in.Op {
		case isa.OpSSuspend, isa.OpSResume, isa.OpSStop, isa.OpSForce:
			a.ctl[int(in.Dst.N)] = true
		case isa.OpSSetVL:
			a.anyVL = true
		}
	}
}

// streamEligible reports whether stream u has exactly one affine
// configuration, never touched by stream control, and returns it.
func (a *analysis) streamEligible(u int) (cfg.Site, bool) {
	if a.ctl[u] || len(a.sites[u]) != 1 {
		return cfg.Site{}, false
	}
	s := a.sites[u][0]
	if len(s.Desc.Static) != 0 || len(s.Desc.Indirect) != 0 {
		return cfg.Site{}, false
	}
	for _, d := range s.Desc.Dims {
		if d.Size < 1 {
			return cfg.Site{}, false
		}
	}
	return s, true
}

// advancesStream reports whether executing pc moves site's stream: a load
// stream consumed as a vector source, or a store stream produced as a
// vector destination (mirrors funcsim's consume/produce rule).
func (a *analysis) advancesStream(pc int, site cfg.Site) bool {
	in := &a.insts[pc]
	if !in.Op.HasDataOperands() {
		return false
	}
	u := site.Stream
	if site.Desc.Kind == descriptor.Load {
		for _, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
			if r.Class == isa.ClassVec && int(r.N) == u {
				return true
			}
		}
		return false
	}
	return in.Dst.Class == isa.ClassVec && int(in.Dst.N) == u
}

// inBody accepts the edges of li's body that are not back edges: walks
// along them see one iteration.
func (a *analysis) inBody(li *loopInfo) func(u, v int) bool {
	return func(u, v int) bool { return li.Contains(v) && !a.forest.IsBack(u, v) }
}

// reachableInBody reports whether from reaches to within one iteration of
// li, skipping blocked edges.
func (a *analysis) reachableInBody(li *loopInfo, from, to int, blocked func(u, v int) bool) bool {
	inBody := a.inBody(li)
	along := func(u, v int) bool { return inBody(u, v) && !blocked(u, v) }
	return from == to || a.g.Reaches(from, along, func(v int) bool { return v == to })
}

// rowsOf is the number of innermost-dimension runs of an affine
// descriptor: the product of all outer dimension sizes.
func rowsOf(d *descriptor.Descriptor) (uint64, bool) {
	rows := uint64(1)
	for _, dim := range d.Dims[1:] {
		hi, lo := bits.Mul64(rows, uint64(dim.Size))
		if hi != 0 {
			return 0, false
		}
		rows = lo
	}
	return rows, true
}

// maxLanes bounds the lane count any whilelt/incvl/setvl can observe for
// element width w.
func (a *analysis) maxLanes(w arch.ElemWidth) uint64 {
	vb := a.o.VecBytes
	if vb <= 0 || vb > arch.MaxVecBytes {
		vb = arch.MaxVecBytes
	}
	l := arch.LanesFor(vb, w)
	if l < 1 {
		l = 1
	}
	return uint64(l)
}

// --- Case-A trip bounds (so.b.nend latches) ---

// caseATrips resolves, before the value fixpoint, loops whose single latch
// is an SBNotEnd over a once-configured affine stream. Such a loop runs at
// most rows(stream) iterations per entry, provided every path around the
// loop both advances the stream and observes a fresh dimension-0 boundary:
//
//  1. the latch's taken edge is the only back edge;
//  2. the stream is configured exactly once, outside the loop, is affine,
//     and is never suspended/resumed/stopped/forced;
//  3. every header→latch path crosses the fall-through (dimension-0-end
//     observed) edge of an SBDimNotEnd(u, 0);
//  4. every header→latch path advances the stream at least once;
//  5. no path advances the stream between that crossing and the latch, so
//     the flags the latch reads belong to a dimension-0-end chunk.
//
// Then each latch observation lands on a distinct dimension-0-end chunk;
// there are rows of those and the final one carries last=true, so the back
// edge is taken at most rows-1 times.
func (a *analysis) caseATrips() {
	a.induction = map[int]map[int]uint64{}
	a.tripAt = map[int]uint64{}
	if !a.forest.Reducible {
		return
	}
	for i := range a.loops {
		li := &a.loops[i]
		if !li.WellNested || len(li.Latches) != 1 {
			continue
		}
		b := li.Latches[0]
		in := &a.insts[b]
		if in.Op != isa.OpSBNotEnd || in.Target != li.Header || b+1 == li.Header {
			continue
		}
		u := int(in.Src1.N)
		site, ok := a.streamEligible(u)
		if !ok || li.Contains(site.EndPC) {
			continue
		}
		rows, ok := rowsOf(site.Desc)
		if !ok || rows == 0 {
			continue
		}
		// Condition 3: block dim-0-end fall-throughs; the latch must
		// become unreachable.
		dimEndFT := func(p, q int) bool {
			pi := &a.insts[p]
			return pi.Op == isa.OpSBDimNotEnd && int(pi.Src1.N) == u &&
				pi.Imm == 0 && q == p+1
		}
		if a.reachableInBody(li, li.Header, b, dimEndFT) {
			continue
		}
		// Condition 4: block successors of advancing instructions; the
		// latch must become unreachable.
		advOut := func(p, q int) bool { return a.advancesStream(p, site) }
		if a.reachableInBody(li, li.Header, b, advOut) {
			continue
		}
		// Condition 5: nothing between a dim-0-end crossing and the latch
		// may advance the stream.
		inBody := a.inBody(li)
		notLatch := func(v, s int) bool { return v != b && inBody(v, s) }
		advances := func(v int) bool { return v != b && a.advancesStream(v, site) }
		clean := true
		for _, q := range li.Body {
			qi := &a.insts[q]
			if qi.Op != isa.OpSBDimNotEnd || int(qi.Src1.N) != u || qi.Imm != 0 {
				continue
			}
			if t := q + 1; li.Contains(t) && (advances(t) || a.g.Reaches(t, notLatch, advances)) {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		li.trip = rows
		a.tripAt[li.Header] = rows
		a.findInduction(i)
	}
}

// findInduction records registers that qualify for header clamping in a
// trip-bounded loop: every definition inside the body is the same-register
// `addi r, r, imm>0` or `incvl r, r` shape, none sits in a nested loop, so
// per iteration the register grows by at least 1 and at most stepHi.
func (a *analysis) findInduction(i int) {
	li := &a.loops[i]
	steps := map[int]uint64{}
	bad := map[int]bool{}
	for _, pc := range li.Body {
		dst := a.intDst(pc)
		if dst <= 0 { // no int def, or x0
			continue
		}
		_, grow := a.growth(pc, dst)
		if grow == 0 || a.forest.LoopOf[pc] != i {
			bad[dst] = true
			continue
		}
		steps[dst] += grow
	}
	ind := map[int]uint64{}
	for r, s := range steps {
		if !bad[r] {
			ind[r] = s
		}
	}
	if len(ind) > 0 {
		a.induction[li.Header] = ind
	}
}

// growth bounds how much pc increases integer register reg by the same-
// register `addi r, r, imm>0` or `incvl r, r` shape: by at least lo and at
// most hi. lo is 0 for any other instruction.
func (a *analysis) growth(pc, reg int) (lo, hi uint64) {
	in := &a.insts[pc]
	if in.Src1.Class != isa.ClassInt || int(in.Src1.N) != reg {
		return 0, 0
	}
	switch {
	case in.Op == isa.OpAddI && in.Imm > 0:
		return uint64(in.Imm), uint64(in.Imm)
	case in.Op == isa.OpIncVL:
		return 1, a.maxLanes(in.W) // lane count is at least 1
	}
	return 0, 0
}

// intDst returns the integer destination register of pc, or -1.
func (a *analysis) intDst(pc int) int {
	in := &a.insts[pc]
	if in.Op == isa.OpSCfg || in.Op.Kind() == isa.KindStreamCtl {
		return -1
	}
	if in.Dst.Class == isa.ClassInt && in.Dst.N != 0 {
		return int(in.Dst.N)
	}
	return -1
}

// clampIv bounds an induction register at the header: it starts inside
// pre and gains at most stepHi per iteration for at most trip-1 iterations.
func clampIv(pre Interval, stepHi, trip uint64) Interval {
	if trip == 0 {
		return Top()
	}
	hiMul, lo := bits.Mul64(stepHi, trip-1)
	if hiMul != 0 {
		return Top()
	}
	hi := pre.Hi + lo
	if hi < pre.Hi {
		return Top()
	}
	return Interval{pre.Lo, hi}
}

// collectThresholds gathers the constants a loop bound could settle on:
// instruction immediates and entry register values, each with its ±1
// neighbors (branch refinements land on v-1/v/v+1).
func (a *analysis) collectThresholds() {
	seen := map[uint64]bool{0: true, ^uint64(0): true}
	addNear := func(v uint64) {
		seen[v-1] = true
		seen[v] = true
		seen[v+1] = true
	}
	for pc := range a.insts {
		if imm := a.insts[pc].Imm; imm != 0 {
			addNear(uint64(imm))
		}
	}
	for _, v := range a.o.Entry {
		addNear(v)
	}
	for v := range seen {
		a.thresholds = append(a.thresholds, v)
	}
	sort.Slice(a.thresholds, func(i, j int) bool { return a.thresholds[i] < a.thresholds[j] })
}

// widenTo extends a growing interval outward to the nearest thresholds,
// so counted loops settle on their bound instead of shooting to Top.
func (a *analysis) widenTo(iv Interval) Interval {
	lo, hi := uint64(0), ^uint64(0)
	for _, t := range a.thresholds {
		if t <= iv.Lo && t > lo {
			lo = t
		}
		if t >= iv.Hi && t < hi {
			hi = t
			break // sorted: first t >= Hi is the nearest
		}
	}
	return Interval{lo, hi}
}

// --- the value fixpoint ---

func (a *analysis) fixpoint() {
	a.inPre = make([]state, a.n)
	a.widenCnt = make([][isa.NumIntRegs]uint8, a.n)

	entry := state{live: true}
	for i := range entry.regs {
		entry.regs[i] = Top()
	}
	entry.regs[0] = Point(0)
	for r, v := range a.o.Entry {
		if r > 0 && r < isa.NumIntRegs {
			entry.regs[r] = Point(v)
		}
	}
	a.in[0] = entry

	work := []int{0}
	queued := make([]bool, a.n)
	queued[0] = true
	budget := a.n * stepBudget
	for len(work) > 0 {
		if budget--; budget < 0 {
			a.degradeToTop()
			return
		}
		pc := work[0]
		work = work[1:]
		queued[pc] = false
		outs := a.flow(pc, a.in[pc])
		for sIdx, succ := range a.g.Succs[pc] {
			s := &outs[sIdx]
			if !s.live {
				continue
			}
			requeue := a.mergeEdge(pc, succ, s)
			for _, q := range requeue {
				if !queued[q] {
					queued[q] = true
					work = append(work, q)
				}
			}
		}
	}
}

// mergeEdge folds one edge's outgoing state into the target, applying
// induction clamps on back edges and tracking the preheader-only merge at
// widen points. It returns the pcs whose in-state changed.
func (a *analysis) mergeEdge(from, to int, s *state) []int {
	var requeue []int
	if a.forest.IsBack(from, to) {
		if ind := a.induction[to]; ind != nil && a.inPre[to].live {
			trip := a.tripAt[to]
			for r, stepHi := range ind {
				s.regs[r] = clampIv(a.inPre[to].regs[r], stepHi, trip)
			}
		}
	} else if a.forest.WidenAt[to] {
		if mergeState(&a.inPre[to], s) && a.induction[to] != nil {
			// The clamp base moved: back edges must re-deliver.
			for i := range a.loops {
				if a.loops[i].Header == to {
					for _, l := range a.loops[i].Latches {
						if a.in[l].live {
							requeue = append(requeue, l)
						}
					}
				}
			}
		}
	}
	if a.mergeWiden(to, s) {
		requeue = append(requeue, to)
	}
	return requeue
}

// mergeWiden joins s into in[to]; at widen points each register may grow
// only widenDelay times before jumping to Top. Induction-clamped registers
// are exempt (their growth is bounded by the clamp).
func (a *analysis) mergeWiden(to int, s *state) bool {
	dst := &a.in[to]
	if !dst.live {
		*dst = *s
		return true
	}
	changed := false
	ind := a.induction[to]
	for i := range dst.regs {
		u := dst.regs[i].Union(s.regs[i])
		if u == dst.regs[i] {
			continue
		}
		if a.forest.WidenAt[to] {
			if _, clamped := ind[i]; !clamped {
				cnt := a.widenCnt[to][i]
				if cnt < 255 {
					a.widenCnt[to][i] = cnt + 1
				}
				if int(cnt) > widenDelay+2*len(a.thresholds)+8 {
					u = Top()
				} else if cnt > widenDelay {
					u = a.widenTo(u)
				}
			}
		}
		if u != dst.regs[i] {
			dst.regs[i] = u
			changed = true
		}
	}
	for i := range dst.facts {
		m := mergeFact(dst.facts[i], s.facts[i])
		if m != dst.facts[i] {
			dst.facts[i] = m
			changed = true
		}
	}
	return changed
}

// degradeToTop is the backstop for a budget overrun or a malformed
// program: every reachable state at Top. Trivially sound.
func (a *analysis) degradeToTop() {
	top := state{live: true}
	for i := range top.regs {
		top.regs[i] = Top()
	}
	top.regs[0] = Point(0)
	for pc := range a.in {
		a.in[pc] = state{}
		if a.g.Reach[pc] {
			a.in[pc] = top
		}
	}
	// Loop trip bounds derived from stream shapes (not from interval
	// states) stay valid; only the value states degrade.
}

// flow applies the instruction at pc and returns one refined state per
// successor (aligned with Succs[pc]); dead edges come back with live=false.
func (a *analysis) flow(pc int, cur state) []state {
	in := &a.insts[pc]
	op := in.Op
	s := cur // value copy

	// Instruction effect on registers and facts.
	switch {
	case op == isa.OpSSetVL || op == isa.OpGetVL:
		a.defInt(&s, in.Dst, Interval{1, a.maxLanes(in.W)})
	case op == isa.OpIncVL:
		a.defInt(&s, in.Dst, add(s.reg(in.Src1), Interval{1, a.maxLanes(in.W)}))
	case op == isa.OpWhilelt:
		if in.Dst.Class == isa.ClassPred {
			f := predFact{}
			if in.Src1.Class == isa.ClassInt && in.Src2.Class == isa.ClassInt {
				f = predFact{valid: true, reg: in.Src1.N, bound: s.regs[in.Src2.N]}
			}
			s.facts[in.Dst.N] = f
		}
	case op.Kind() == isa.KindIntALU:
		a.defInt(&s, in.Dst, EvalOp(op, s.reg(in.Src1), s.reg(in.Src2), in.Imm))
	default:
		if in.Dst.Class == isa.ClassInt && op.HasDataOperands() {
			a.defInt(&s, in.Dst, Top()) // loads, ftoi, flt/fle, …
		}
		if in.Dst.Class == isa.ClassPred {
			s.facts[in.Dst.N] = predFact{}
		}
	}

	succs := a.g.Succs[pc]
	outs := make([]state, len(succs))
	for i := range outs {
		outs[i] = s
	}
	if len(outs) != 2 {
		return outs
	}

	// Per-edge refinement on the two-way branches (outs[0] = taken).
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if in.Src1.Class != isa.ClassInt || in.Src2.Class != isa.ClassInt ||
			in.Src1.N == in.Src2.N {
			break
		}
		x, y := in.Src1.N, in.Src2.N
		eq, ne := 0, 1
		if op == isa.OpBne {
			eq, ne = 1, 0
		}
		switch op {
		case isa.OpBeq, isa.OpBne:
			refineEq(&outs[eq], x, y)
			refineNe(&outs[ne], x, y)
		case isa.OpBlt:
			refineLT(&outs[0], x, y)
			refineGE(&outs[1], x, y)
		case isa.OpBge:
			refineGE(&outs[0], x, y)
			refineLT(&outs[1], x, y)
		}
	case isa.OpBFirst, isa.OpBNone:
		if in.Src1.Class != isa.ClassPred {
			break
		}
		f := s.facts[in.Src1.N]
		if !f.valid {
			break
		}
		// Any active lane ⇔ (signed) reg < bound value.
		lt, ge := 0, 1
		if op == isa.OpBNone {
			lt, ge = 1, 0
		}
		refineLTBound(&outs[lt], f.reg, f.bound)
		refineGEBound(&outs[ge], f.reg, f.bound)
	}
	return outs
}

// defInt writes an integer destination and kills facts over it.
func (a *analysis) defInt(s *state, dst isa.Reg, iv Interval) {
	if dst.Class != isa.ClassInt {
		return
	}
	s.setReg(dst.N, iv)
	if dst.N != 0 {
		s.killFactsOn(dst.N)
	}
}

// --- branch refinements (all conservative: on any doubt, leave as-is) ---

func refineEq(s *state, x, y uint8) {
	iv, ok := s.regs[x].Intersect(s.regs[y])
	if !ok {
		s.live = false
		return
	}
	s.setReg(x, iv)
	s.setReg(y, iv)
}

func refineNe(s *state, x, y uint8) {
	a, b := s.regs[x], s.regs[y]
	if na, ok := excludePoint(a, b); ok {
		s.setReg(x, na)
	} else if b.IsPoint() && a.IsPoint() && a.Lo == b.Lo {
		s.live = false
		return
	}
	if nb, ok := excludePoint(b, s.regs[x]); ok {
		s.setReg(y, nb)
	}
}

// excludePoint trims iv's endpoints when o is a single excluded value;
// ok=false means no refinement applies (not that the edge is dead).
func excludePoint(iv, o Interval) (Interval, bool) {
	if !o.IsPoint() || !iv.Contains(o.Lo) {
		return iv, false
	}
	switch {
	case iv.IsPoint():
		return iv, false
	case iv.Lo == o.Lo:
		return Interval{iv.Lo + 1, iv.Hi}, true
	case iv.Hi == o.Lo:
		return Interval{iv.Lo, iv.Hi - 1}, true
	}
	return iv, false
}

// refineLT applies signed x < y. Signed and unsigned orderings agree only
// when both ranges are non-negative under a signed view; otherwise skip.
func refineLT(s *state, x, y uint8) {
	a, b := s.regs[x], s.regs[y]
	if !a.signedNonNeg() || !b.signedNonNeg() {
		return
	}
	if b.Hi == 0 { // nothing is < 0
		s.live = false
		return
	}
	if a.Hi > b.Hi-1 {
		a.Hi = b.Hi - 1
	}
	if b.Lo < s.regs[x].Lo+1 {
		b.Lo = s.regs[x].Lo + 1
	}
	if a.Lo > a.Hi || b.Lo > b.Hi {
		s.live = false
		return
	}
	s.setReg(x, a)
	s.setReg(y, b)
}

// refineGE applies signed x >= y.
func refineGE(s *state, x, y uint8) {
	a, b := s.regs[x], s.regs[y]
	if !a.signedNonNeg() || !b.signedNonNeg() {
		return
	}
	if a.Lo < b.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > s.regs[x].Hi {
		b.Hi = s.regs[x].Hi
	}
	if a.Lo > a.Hi || b.Lo > b.Hi {
		s.live = false
		return
	}
	s.setReg(x, a)
	s.setReg(y, b)
}

// refineLTBound applies signed reg < v for some v in bound.
func refineLTBound(s *state, reg uint8, bound Interval) {
	a := s.regs[reg]
	if !a.signedNonNeg() || !bound.signedNonNeg() {
		return
	}
	if bound.Hi == 0 {
		s.live = false
		return
	}
	if a.Hi > bound.Hi-1 {
		a.Hi = bound.Hi - 1
	}
	if a.Lo > a.Hi {
		s.live = false
		return
	}
	s.setReg(reg, a)
}

// refineGEBound applies signed reg >= v for some v in bound.
func refineGEBound(s *state, reg uint8, bound Interval) {
	a := s.regs[reg]
	if !a.signedNonNeg() || !bound.signedNonNeg() {
		return
	}
	if a.Lo < bound.Lo {
		a.Lo = bound.Lo
	}
	if a.Lo > a.Hi {
		s.live = false
		return
	}
	s.setReg(reg, a)
}

// --- post-fixpoint scalar (Case B) and chunk (Case C) trip bounds ---

// scalarTrips bounds remaining single-latch loops using the final interval
// states: counted scalar loops (blt/bge latches), whilelt loops (b.first/
// b.none latches with a live fact), per-row chunk loops (so.b.ndc latches
// over an eligible stream), and whole-stream loops (so.b.nend latches Case
// A could not resolve, bounded by the stream's total chunk count).
func (a *analysis) scalarTrips() {
	if !a.forest.Reducible {
		return
	}
	for i := range a.loops {
		li := &a.loops[i]
		if li.trip != 0 || !li.WellNested || len(li.Latches) != 1 {
			continue
		}
		b := li.Latches[0]
		if !a.in[b].live {
			// Latch unreachable: the loop body runs at most once.
			li.trip = 1
			continue
		}
		in := &a.insts[b]
		var xReg int
		var bound Interval
		ok := false
		switch in.Op {
		case isa.OpBlt:
			if in.Target == li.Header && b+1 != li.Header &&
				in.Src1.Class == isa.ClassInt && in.Src2.Class == isa.ClassInt {
				xReg, bound, ok = int(in.Src1.N), a.in[b].regs[in.Src2.N], true
				ok = ok && a.invariantIn(li, int(in.Src2.N))
			}
		case isa.OpBge:
			if b+1 == li.Header && !a.forest.IsBack(b, in.Target) &&
				in.Src1.Class == isa.ClassInt && in.Src2.Class == isa.ClassInt {
				xReg, bound, ok = int(in.Src1.N), a.in[b].regs[in.Src2.N], true
				ok = ok && a.invariantIn(li, int(in.Src2.N))
			}
		case isa.OpBFirst:
			if in.Target == li.Header && b+1 != li.Header && in.Src1.Class == isa.ClassPred {
				if f := a.in[b].facts[in.Src1.N]; f.valid {
					xReg, bound, ok = int(f.reg), f.bound, true
				}
			}
		case isa.OpBNone:
			if b+1 == li.Header && !a.forest.IsBack(b, in.Target) && in.Src1.Class == isa.ClassPred {
				if f := a.in[b].facts[in.Src1.N]; f.valid {
					xReg, bound, ok = int(f.reg), f.bound, true
				}
			}
		case isa.OpSBDimNotEnd:
			if in.Target == li.Header && b+1 != li.Header {
				if trip, cok := a.caseCTrip(i, b); cok {
					li.trip = trip
				}
			}
			continue
		case isa.OpSBNotEnd:
			if in.Target == li.Header && b+1 != li.Header {
				if trip, cok := a.wholeStreamTrip(i, b); cok {
					li.trip = trip
				}
			}
			continue
		default:
			continue
		}
		if !ok {
			continue
		}
		stepLo, sok := a.monotoneStep(li, xReg)
		if !sok {
			continue
		}
		x := a.in[b].regs[xReg]
		if !x.signedNonNeg() || !bound.signedNonNeg() {
			continue
		}
		if bound.Hi <= x.Lo {
			li.trip = 1
			continue
		}
		li.trip = (bound.Hi-x.Lo)/stepLo + 2
	}
}

// invariantIn reports that no instruction in the body writes integer reg r.
func (a *analysis) invariantIn(li *loopInfo, r int) bool {
	for _, pc := range li.Body {
		if a.intDst(pc) == r {
			return false
		}
	}
	return true
}

// monotoneStep checks that every body definition of reg only increases it
// by a positive known amount and that every header→latch path passes at
// least one such definition. It returns the minimum per-cycle gain.
func (a *analysis) monotoneStep(li *loopInfo, reg int) (uint64, bool) {
	stepLo := ^uint64(0)
	defs := map[int]bool{}
	for _, pc := range li.Body {
		if a.intDst(pc) != reg {
			continue
		}
		lo, _ := a.growth(pc, reg)
		if lo == 0 {
			return 0, false
		}
		stepLo = min(stepLo, lo)
		defs[pc] = true
	}
	if len(defs) == 0 {
		return 0, false
	}
	// Every cycle must pass a definition: with their out-edges blocked the
	// latch is unreachable from the header.
	blocked := func(p, q int) bool { return defs[p] }
	if a.reachableInBody(li, li.Header, li.Latches[0], blocked) {
		return 0, false
	}
	return stepLo, true
}

// caseCTrip bounds an inner chunk loop latched by SBDimNotEnd(u, d): per
// entry it runs at most the number of chunks in one dimension-(d+1) block,
// when exactly one instruction advances the stream per iteration; with
// only the at-least-once guarantee it still cannot outlive the whole
// stream, so the total chunk count bounds it.
func (a *analysis) caseCTrip(liIdx, b int) (uint64, bool) {
	li := &a.loops[liIdx]
	d := int(a.insts[b].Imm)
	site, ok := a.streamEligible(int(a.insts[b].Src1.N))
	if !ok || li.Contains(site.EndPC) || d < 0 || d >= len(site.Desc.Dims) {
		return 0, false
	}
	// Rows within one dimension-(d+1) block vs. the whole stream.
	block, total := uint64(1), uint64(1)
	for k, dim := range site.Desc.Dims[1:] {
		hi, lo := bits.Mul64(total, uint64(dim.Size))
		if hi != 0 {
			return 0, false
		}
		total = lo
		if k+1 <= d {
			block = total
		}
	}
	if a.singleAdvance(liIdx, site) {
		total = block
	}
	return a.chunkTrips(li, b, site, total)
}

// wholeStreamTrip bounds a loop latched by SBNotEnd(u) that Case A could
// not resolve (no dimension-0-end crossing discipline): when every
// header→latch path strictly advances the once-configured affine stream,
// each taken back edge consumes at least one chunk of a stream that holds
// finitely many, so the total chunk count bounds the iterations.
func (a *analysis) wholeStreamTrip(liIdx, b int) (uint64, bool) {
	li := &a.loops[liIdx]
	site, ok := a.streamEligible(int(a.insts[b].Src1.N))
	if !ok || li.Contains(site.EndPC) {
		return 0, false
	}
	rows, ok := rowsOf(site.Desc)
	if !ok {
		return 0, false
	}
	return a.chunkTrips(li, b, site, rows)
}

// chunkTrips bounds the iterations of li, latched at b, by the chunks in
// rows rows of site's stream, provided every header→latch path strictly
// advances the stream (at least one chunk per cycle).
func (a *analysis) chunkTrips(li *loopInfo, b int, site cfg.Site, rows uint64) (uint64, bool) {
	advOut := func(p, q int) bool { return a.advancesStream(p, site) }
	if a.reachableInBody(li, li.Header, b, advOut) {
		return 0, false
	}
	lanes := uint64(1)
	if a.o.VecBytes > 0 && !a.anyVL {
		lanes = a.maxLanes(site.Desc.Width)
	}
	chunksRow := max((uint64(site.Desc.Dims[0].Size)+lanes-1)/lanes, 1)
	hi, trips := bits.Mul64(rows, chunksRow)
	if hi != 0 || trips == 0 {
		return 0, false
	}
	return trips, true
}

// singleAdvance reports that exactly one instruction in the body advances
// stream u and it is not nested in an inner loop, so it runs exactly once
// per iteration of this loop.
func (a *analysis) singleAdvance(liIdx int, site cfg.Site) bool {
	adv := -1
	for _, pc := range a.loops[liIdx].Body {
		if !a.advancesStream(pc, site) {
			continue
		}
		if adv >= 0 {
			return false
		}
		adv = pc
	}
	return adv >= 0 && a.forest.LoopOf[adv] == liIdx
}

// --- query API ---

// At returns the interval of integer register reg immediately before pc
// executes. Unreachable or out-of-range points answer Top.
func (r *Result) At(pc, reg int) Interval {
	if r == nil || pc < 0 || pc >= r.n || reg < 0 || reg >= isa.NumIntRegs {
		return Top()
	}
	if !r.in[pc].live {
		return Top()
	}
	return r.in[pc].regs[reg]
}

// Reachable reports whether any abstract path reaches pc. Points the
// analysis proves unreachable never execute.
func (r *Result) Reachable(pc int) bool {
	if r == nil || pc < 0 || pc >= r.n {
		return false
	}
	return r.in[pc].live
}

// LoopTrip returns the proved per-entry iteration bound of the loop headed
// at pc, when one exists.
func (r *Result) LoopTrip(header int) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	for i := range r.loops {
		if r.loops[i].Header == header && r.loops[i].trip != 0 {
			return r.loops[i].trip, true
		}
	}
	return 0, false
}

// MaxExec bounds how many times pc can execute in any run: the product of
// the per-entry trip bounds and entry multiplicities along its loop chain.
// ok=false means no finite bound was proved.
func (r *Result) MaxExec(pc int) (uint64, bool) {
	if r == nil || pc < 0 || pc >= r.n || !r.reducible {
		return 0, false
	}
	if !r.in[pc].live {
		return 0, true
	}
	acc := uint64(1)
	for li := r.loopOf[pc]; li >= 0; li = r.loops[li].Parent {
		l := &r.loops[li]
		if l.trip == 0 || !l.WellNested {
			return 0, false
		}
		hi, lo := bits.Mul64(acc, l.trip)
		if hi != 0 {
			return 0, false
		}
		hi, lo = bits.Mul64(lo, l.EntryPreds)
		if hi != 0 {
			return 0, false
		}
		acc = lo
	}
	return acc, true
}
