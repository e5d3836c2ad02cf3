package absint

import (
	"math/bits"
	"sort"

	"repro/internal/arch"
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

func (s *state) reg(r isa.Reg) Interval {
	if r.Class == isa.ClassInt {
		return s.regs[r.N]
	}
	return Top()
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

// loopInfo is one natural loop (loops sharing a header are merged).
type loopInfo struct {
	header  int
	latches []int
	body    map[int]bool
	parent  int // index into loops, -1 for outermost

	// trip, when non-zero, bounds body executions per loop entry.
	trip uint64

	// wellNested: every entry edge into the header comes from the parent
	// loop's body (or from outside any loop for outermost loops), and the
	// body has no side entrances. Required for MaxExec products.
	wellNested bool

	// entryPreds counts distinct predecessors of the header outside the
	// body; each can trigger one entry per parent iteration.
	entryPreds uint64
}

// cfgSite is one complete ss.cfg run for a stream whose descriptor
// rebuilt successfully.
type cfgSite struct {
	endPC int
	desc  *descriptor.Descriptor
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
	p     *program.Program
	o     Options
	n     int
	insts []isa.Inst
	succs [][]int
	preds [][]int

	isBack    map[[2]int]bool
	widenAt   []bool
	reducible bool

	loops  []loopInfo
	loopOf []int

	// Stream facts for trip bounds.
	sites  map[int][]cfgSite // stream → completed config runs
	ctl    map[int]bool      // stream named by suspend/resume/stop/force
	anyVL  bool              // program contains ss.setvl
	kindOf map[int]descriptor.Kind

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
	a := &analysis{p: p, o: o, n: n}
	if n == 0 {
		return &Result{n: 0, reducible: true}
	}
	a.insts = make([]isa.Inst, n)
	for pc := 0; pc < n; pc++ {
		a.insts[pc] = p.At(pc)
	}
	a.buildCFG()
	a.findLoops()
	a.collectStreams()
	a.caseATrips()
	a.collectThresholds()
	a.fixpoint()
	a.scalarTrips()
	return &Result{n: n, in: a.in, loops: a.loops, loopOf: a.loopOf, reducible: a.reducible}
}

// --- CFG construction ---

func (a *analysis) buildCFG() {
	a.succs = make([][]int, a.n)
	a.preds = make([][]int, a.n)
	for pc := 0; pc < a.n; pc++ {
		in := &a.insts[pc]
		var out []int
		switch {
		case in.Op == isa.OpHalt:
		case in.Op == isa.OpJ:
			out = []int{in.Target}
		case in.Op.IsBranch(): // conditional: taken edge first
			out = []int{in.Target, pc + 1}
		default:
			out = []int{pc + 1}
		}
		var kept []int
		for _, s := range out {
			if s >= 0 && s < a.n {
				kept = append(kept, s)
			}
		}
		a.succs[pc] = kept
		for _, s := range kept {
			a.preds[s] = append(a.preds[s], pc)
		}
	}
}

// findLoops runs a DFS for retreating edges, iterative dominators, and
// natural-loop bodies; irreducible graphs keep widening but disable trip
// bounds and induction clamps.
func (a *analysis) findLoops() {
	a.isBack = map[[2]int]bool{}
	a.widenAt = make([]bool, a.n)
	a.loopOf = make([]int, a.n)
	for i := range a.loopOf {
		a.loopOf[i] = -1
	}

	// Iterative DFS for retreating edges (edge into a gray node).
	// Colors: 0 white, 1 gray (on stack), 2 black.
	color := make([]byte, a.n)
	var retreat [][2]int
	type frame struct{ pc, next int }
	frames := []frame{{0, 0}}
	color[0] = 1
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next < len(a.succs[f.pc]) {
			s := a.succs[f.pc][f.next]
			f.next++
			switch color[s] {
			case 0:
				color[s] = 1
				frames = append(frames, frame{s, 0})
			case 1:
				retreat = append(retreat, [2]int{f.pc, s})
			}
			continue
		}
		color[f.pc] = 2
		frames = frames[:len(frames)-1]
	}

	// Iterative dominators over DFS-reachable nodes (bitsets).
	words := (a.n + 63) / 64
	full := make([]uint64, words)
	for pc := 0; pc < a.n; pc++ {
		if color[pc] != 0 {
			full[pc/64] |= 1 << uint(pc%64)
		}
	}
	dom := make([][]uint64, a.n)
	for pc := 0; pc < a.n; pc++ {
		if color[pc] == 0 {
			continue
		}
		dom[pc] = make([]uint64, words)
		if pc == 0 {
			dom[pc][0] = 1
		} else {
			copy(dom[pc], full)
		}
	}
	changed := true
	for changed {
		changed = false
		for pc := 0; pc < a.n; pc++ {
			if color[pc] == 0 || pc == 0 {
				continue
			}
			tmp := make([]uint64, words)
			copy(tmp, full)
			any := false
			for _, pr := range a.preds[pc] {
				if dom[pr] == nil {
					continue
				}
				any = true
				for w := range tmp {
					tmp[w] &= dom[pr][w]
				}
			}
			if !any {
				continue
			}
			tmp[pc/64] |= 1 << uint(pc%64)
			for w := range tmp {
				if tmp[w] != dom[pc][w] {
					dom[pc] = tmp
					changed = true
					break
				}
			}
		}
	}
	dominates := func(d, v int) bool {
		return dom[v] != nil && dom[v][d/64]&(1<<uint(d%64)) != 0
	}

	a.reducible = true
	byHeader := map[int]*loopInfo{}
	for _, e := range retreat {
		a.widenAt[e[1]] = true
		if !dominates(e[1], e[0]) {
			a.reducible = false
			continue
		}
		a.isBack[e] = true
		li := byHeader[e[1]]
		if li == nil {
			li = &loopInfo{header: e[1], body: map[int]bool{e[1]: true}, parent: -1}
			byHeader[e[1]] = li
		}
		li.latches = append(li.latches, e[0])
		// Natural loop: nodes reaching the latch without passing the header.
		work := []int{e[0]}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if li.body[v] {
				continue
			}
			li.body[v] = true
			for _, pr := range a.preds[v] {
				if color[pr] != 0 && !li.body[pr] {
					work = append(work, pr)
				}
			}
		}
	}
	if !a.reducible {
		a.isBack = map[[2]int]bool{}
		return
	}

	for _, li := range byHeader {
		a.loops = append(a.loops, *li)
	}
	// Sort by body size ascending so loopOf finds the innermost first.
	for i := 1; i < len(a.loops); i++ {
		for j := i; j > 0 && len(a.loops[j].body) < len(a.loops[j-1].body); j-- {
			a.loops[j], a.loops[j-1] = a.loops[j-1], a.loops[j]
		}
	}
	for pc := 0; pc < a.n; pc++ {
		for i := range a.loops {
			if a.loops[i].body[pc] {
				a.loopOf[pc] = i
				break
			}
		}
	}
	for i := range a.loops {
		for j := range a.loops {
			if i == j || len(a.loops[j].body) < len(a.loops[i].body) {
				continue
			}
			if j != i && a.loops[j].body[a.loops[i].header] && a.loops[j].header != a.loops[i].header {
				a.loops[i].parent = j
				break
			}
		}
	}
	for i := range a.loops {
		li := &a.loops[i]
		li.wellNested = true
		seen := map[int]bool{}
		for _, pr := range a.preds[li.header] {
			if li.body[pr] || color[pr] == 0 {
				continue
			}
			if !seen[pr] {
				seen[pr] = true
				li.entryPreds++
			}
			// Entry preds must live exactly in the parent loop.
			if a.loopOf[pr] != li.parent {
				li.wellNested = false
			}
		}
		if li.entryPreds == 0 {
			li.entryPreds = 1
		}
		// No side entrances: body nodes other than the header may only be
		// reached from inside the body.
		for v := range li.body {
			if v == li.header {
				continue
			}
			for _, pr := range a.preds[v] {
				if color[pr] != 0 && !li.body[pr] {
					li.wellNested = false
				}
			}
		}
	}
}

// --- stream configuration facts ---

func (a *analysis) collectStreams() {
	a.sites = map[int][]cfgSite{}
	a.ctl = map[int]bool{}
	a.kindOf = map[int]descriptor.Kind{}
	open := map[int][]*isa.StreamCfgPart{}
	for pc := 0; pc < a.n; pc++ {
		in := &a.insts[pc]
		switch in.Op {
		case isa.OpSCfg:
			cp := in.Cfg
			if cp == nil {
				continue
			}
			if cp.Start {
				open[cp.Stream] = open[cp.Stream][:0]
			}
			open[cp.Stream] = append(open[cp.Stream], cp)
			if cp.End {
				if d, err := isa.RebuildDescriptor(open[cp.Stream]); err == nil {
					a.sites[cp.Stream] = append(a.sites[cp.Stream], cfgSite{endPC: pc, desc: d})
					a.kindOf[cp.Stream] = d.Kind
				} else {
					// Unparseable config: poison the stream.
					a.ctl[cp.Stream] = true
				}
				delete(open, cp.Stream)
			}
		case isa.OpSSuspend, isa.OpSResume, isa.OpSStop, isa.OpSForce:
			a.ctl[int(in.Dst.N)] = true
		case isa.OpSSetVL:
			a.anyVL = true
		}
	}
}

// streamEligible reports whether stream u has exactly one affine
// configuration, never touched by stream control, and returns it.
func (a *analysis) streamEligible(u int) (cfgSite, bool) {
	if a.ctl[u] || len(a.sites[u]) != 1 {
		return cfgSite{}, false
	}
	s := a.sites[u][0]
	if len(s.desc.Static) != 0 || len(s.desc.Indirect) != 0 {
		return cfgSite{}, false
	}
	for _, d := range s.desc.Dims {
		if d.Size < 1 {
			return cfgSite{}, false
		}
	}
	return s, true
}

// advancesStream reports whether executing pc moves stream u's position:
// a load stream consumed as a vector source, or a store stream produced
// as a vector destination (mirrors funcsim's consume/produce rule).
func (a *analysis) advancesStream(pc, u int) bool {
	in := &a.insts[pc]
	if !in.Op.HasDataOperands() {
		return false
	}
	kind, known := a.kindOf[u]
	if !known {
		return false
	}
	if kind == descriptor.Load {
		for _, r := range [...]isa.Reg{in.Src1, in.Src2, in.Src3} {
			if r.Class == isa.ClassVec && int(r.N) == u {
				return true
			}
		}
		return false
	}
	return in.Dst.Class == isa.ClassVec && int(in.Dst.N) == u
}

// reachableInBody is a DFS over the loop body with this loop's back edges
// removed and blocked edges skipped.
func (a *analysis) reachableInBody(li *loopInfo, from, to int, blocked func(u, v int) bool) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	work := []int{from}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range a.succs[u] {
			if !li.body[v] || a.isBack[[2]int{u, v}] {
				continue
			}
			if blocked != nil && blocked(u, v) {
				continue
			}
			if v == to {
				return true
			}
			if !seen[v] {
				seen[v] = true
				work = append(work, v)
			}
		}
	}
	return false
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
	if !a.reducible {
		return
	}
	for i := range a.loops {
		li := &a.loops[i]
		if !li.wellNested || len(li.latches) != 1 {
			continue
		}
		b := li.latches[0]
		in := &a.insts[b]
		if in.Op != isa.OpSBNotEnd || in.Target != li.header || b+1 == li.header {
			continue
		}
		u := int(in.Src1.N)
		site, ok := a.streamEligible(u)
		if !ok || li.body[site.endPC] {
			continue
		}
		rows, ok := rowsOf(site.desc)
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
		if a.reachableInBody(li, li.header, b, dimEndFT) {
			continue
		}
		// Condition 4: block successors of advancing instructions; the
		// latch must become unreachable.
		advOut := func(p, q int) bool { return a.advancesStream(p, u) }
		if a.reachableInBody(li, li.header, b, advOut) {
			continue
		}
		// Condition 5: nothing between a dim-0-end crossing and the latch
		// may advance the stream.
		clean := true
		for q := range li.body {
			qi := &a.insts[q]
			if qi.Op != isa.OpSBDimNotEnd || int(qi.Src1.N) != u || qi.Imm != 0 {
				continue
			}
			t := q + 1
			if t >= a.n || !li.body[t] {
				continue
			}
			seen := map[int]bool{}
			work := []int{t}
			for len(work) > 0 && clean {
				v := work[len(work)-1]
				work = work[:len(work)-1]
				if seen[v] || v == b {
					continue
				}
				seen[v] = true
				if a.advancesStream(v, u) {
					clean = false
					break
				}
				for _, s := range a.succs[v] {
					if li.body[s] && !a.isBack[[2]int{v, s}] && !seen[s] {
						work = append(work, s)
					}
				}
			}
			if !clean {
				break
			}
		}
		if !clean {
			continue
		}
		li.trip = rows
		a.tripAt[li.header] = rows
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
	for pc := range li.body {
		in := &a.insts[pc]
		dst := a.intDst(pc)
		if dst <= 0 { // no int def, or x0
			continue
		}
		grow := uint64(0)
		switch in.Op {
		case isa.OpAddI:
			if in.Src1.Class == isa.ClassInt && int(in.Src1.N) == dst && in.Imm > 0 {
				grow = uint64(in.Imm)
			}
		case isa.OpIncVL:
			if in.Src1.Class == isa.ClassInt && int(in.Src1.N) == dst {
				grow = a.maxLanes(in.W)
			}
		}
		if grow == 0 || a.loopOf[pc] != i {
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
		a.induction[li.header] = ind
	}
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
	a.in = make([]state, a.n)
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
		for sIdx, succ := range a.succs[pc] {
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
	key := [2]int{from, to}
	if a.isBack[key] {
		if ind := a.induction[to]; ind != nil && a.inPre[to].live {
			trip := a.tripAt[to]
			for r, stepHi := range ind {
				s.regs[r] = clampIv(a.inPre[to].regs[r], stepHi, trip)
			}
		}
	} else if a.widenAt[to] {
		if mergeState(&a.inPre[to], s) && a.induction[to] != nil {
			// The clamp base moved: back edges must re-deliver.
			for i := range a.loops {
				if a.loops[i].header == to {
					for _, l := range a.loops[i].latches {
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
		if a.widenAt[to] {
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

// degradeToTop is the budget-overrun backstop: a plain reachability pass
// with every reachable state at Top. Trivially sound.
func (a *analysis) degradeToTop() {
	top := state{live: true}
	for i := range top.regs {
		top.regs[i] = Top()
	}
	top.regs[0] = Point(0)
	seen := make([]bool, a.n)
	work := []int{0}
	seen[0] = true
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		a.in[pc] = top
		for _, s := range a.succs[pc] {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	for pc := range a.in {
		if !seen[pc] {
			a.in[pc] = state{}
		}
	}
	// Loop trip bounds derived from stream shapes (not from interval
	// states) stay valid; only the value states degrade.
}

// flow applies the instruction at pc and returns one refined state per
// successor (aligned with succs[pc]); dead edges come back with live=false.
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

	succs := a.succs[pc]
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
	if !a.reducible {
		return
	}
	for i := range a.loops {
		li := &a.loops[i]
		if li.trip != 0 || !li.wellNested || len(li.latches) != 1 {
			continue
		}
		b := li.latches[0]
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
			if in.Target == li.header && b+1 != li.header &&
				in.Src1.Class == isa.ClassInt && in.Src2.Class == isa.ClassInt {
				xReg, bound, ok = int(in.Src1.N), a.in[b].regs[in.Src2.N], true
				ok = ok && a.invariantIn(li, int(in.Src2.N))
			}
		case isa.OpBge:
			if b+1 == li.header && !a.isBack[[2]int{b, in.Target}] &&
				in.Src1.Class == isa.ClassInt && in.Src2.Class == isa.ClassInt {
				xReg, bound, ok = int(in.Src1.N), a.in[b].regs[in.Src2.N], true
				ok = ok && a.invariantIn(li, int(in.Src2.N))
			}
		case isa.OpBFirst:
			if in.Target == li.header && b+1 != li.header && in.Src1.Class == isa.ClassPred {
				if f := a.in[b].facts[in.Src1.N]; f.valid {
					xReg, bound, ok = int(f.reg), f.bound, true
				}
			}
		case isa.OpBNone:
			if b+1 == li.header && !a.isBack[[2]int{b, in.Target}] && in.Src1.Class == isa.ClassPred {
				if f := a.in[b].facts[in.Src1.N]; f.valid {
					xReg, bound, ok = int(f.reg), f.bound, true
				}
			}
		case isa.OpSBDimNotEnd:
			if in.Target == li.header && b+1 != li.header {
				if trip, cok := a.caseCTrip(i, b); cok {
					li.trip = trip
				}
			}
			continue
		case isa.OpSBNotEnd:
			if in.Target == li.header && b+1 != li.header {
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
	for pc := range li.body {
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
	for pc := range li.body {
		if a.intDst(pc) != reg {
			continue
		}
		in := &a.insts[pc]
		switch in.Op {
		case isa.OpAddI:
			if in.Src1.Class == isa.ClassInt && int(in.Src1.N) == reg && in.Imm > 0 {
				if uint64(in.Imm) < stepLo {
					stepLo = uint64(in.Imm)
				}
				defs[pc] = true
				continue
			}
		case isa.OpIncVL:
			if in.Src1.Class == isa.ClassInt && int(in.Src1.N) == reg {
				stepLo = 1 // lane count is at least 1
				defs[pc] = true
				continue
			}
		}
		return 0, false
	}
	if len(defs) == 0 {
		return 0, false
	}
	// Every cycle must pass a definition: with their out-edges blocked the
	// latch is unreachable from the header.
	blocked := func(p, q int) bool { return defs[p] }
	if a.reachableInBody(li, li.header, li.latches[0], blocked) {
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
	in := &a.insts[b]
	u := int(in.Src1.N)
	d := int(in.Imm)
	site, ok := a.streamEligible(u)
	if !ok || li.body[site.endPC] || d < 0 || d >= len(site.desc.Dims) {
		return 0, false
	}
	// Strict advance (at least one per cycle).
	advOut := func(p, q int) bool { return a.advancesStream(p, u) }
	if a.reachableInBody(li, li.header, b, advOut) {
		return 0, false
	}
	lanes := uint64(1)
	if a.o.VecBytes > 0 && !a.anyVL {
		lanes = a.maxLanes(site.desc.Width)
	}
	s0 := uint64(site.desc.Dims[0].Size)
	chunksRow := (s0 + lanes - 1) / lanes
	if chunksRow == 0 {
		chunksRow = 1
	}
	// Rows within one dimension-(d+1) block vs. the whole stream.
	block, total := uint64(1), uint64(1)
	for k, dim := range site.desc.Dims[1:] {
		hi, lo := bits.Mul64(total, uint64(dim.Size))
		if hi != 0 {
			return 0, false
		}
		total = lo
		if k+1 <= d {
			block = total
		}
	}
	rows := total
	if a.singleAdvance(liIdx, u) {
		rows = block
	}
	hi, trips := bits.Mul64(rows, chunksRow)
	if hi != 0 || trips == 0 {
		return 0, false
	}
	return trips, true
}

// wholeStreamTrip bounds a loop latched by SBNotEnd(u) that Case A could
// not resolve (no dimension-0-end crossing discipline): when every
// header→latch path strictly advances the once-configured affine stream,
// each taken back edge consumes at least one chunk of a stream that holds
// finitely many, so the total chunk count bounds the iterations.
func (a *analysis) wholeStreamTrip(liIdx, b int) (uint64, bool) {
	li := &a.loops[liIdx]
	in := &a.insts[b]
	u := int(in.Src1.N)
	site, ok := a.streamEligible(u)
	if !ok || li.body[site.endPC] {
		return 0, false
	}
	// Strict advance (at least one chunk per cycle).
	advOut := func(p, q int) bool { return a.advancesStream(p, u) }
	if a.reachableInBody(li, li.header, b, advOut) {
		return 0, false
	}
	lanes := uint64(1)
	if a.o.VecBytes > 0 && !a.anyVL {
		lanes = a.maxLanes(site.desc.Width)
	}
	s0 := uint64(site.desc.Dims[0].Size)
	chunksRow := (s0 + lanes - 1) / lanes
	if chunksRow == 0 {
		chunksRow = 1
	}
	rows, rok := rowsOf(site.desc)
	if !rok || rows == 0 {
		return 0, false
	}
	hi, trips := bits.Mul64(rows, chunksRow)
	if hi != 0 || trips == 0 {
		return 0, false
	}
	return trips, true
}

// singleAdvance reports that exactly one instruction in the body advances
// stream u and it is not nested in an inner loop, so it runs exactly once
// per iteration of this loop.
func (a *analysis) singleAdvance(liIdx, u int) bool {
	adv := -1
	for pc := range a.loops[liIdx].body {
		if !a.advancesStream(pc, u) {
			continue
		}
		if adv >= 0 {
			return false
		}
		adv = pc
	}
	return adv >= 0 && a.loopOf[adv] == liIdx
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
		if r.loops[i].header == header && r.loops[i].trip != 0 {
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
	for li := r.loopOf[pc]; li >= 0; li = r.loops[li].parent {
		l := &r.loops[li]
		if l.trip == 0 || !l.wellNested {
			return 0, false
		}
		hi, lo := bits.Mul64(acc, l.trip)
		if hi != 0 {
			return 0, false
		}
		hi, lo = bits.Mul64(lo, l.entryPreds)
		if hi != 0 {
			return 0, false
		}
		acc = lo
	}
	return acc, true
}
