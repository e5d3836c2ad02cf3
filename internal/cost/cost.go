// Package cost is the static descriptor cost model: given a verified
// program and a machine configuration, it derives — without running the
// simulator — exact per-stream work (elements, bytes, chunks, dimension
// boundaries, line requests, store lines), unique cache-line footprints,
// exact committed instruction counts, and a set of roofline-style cycle
// lower bounds (commit/issue width, per-port-group throughput, per-channel
// DRAM bandwidth, stream-engine generator throughput).
//
// Everything the analyzer reports is either exact or an explicit interval:
// pure affine descriptors are solved in closed form, modifier and indirect
// patterns fall back to a budgeted symbolic walk of the descriptor
// iterator, and anything data-dependent (Size-target indirection,
// data-dependent branches) degrades to an interval plus a diagnostic —
// never a wrong point estimate. The differential tests in this package and
// internal/sim enforce both halves: exact quantities equal the simulator's
// counters, and every bound is ≤ the measured cycle count.
package cost

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/descriptor"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Params configures an estimate: the machine the program would run on plus
// the entry register arguments (sizes, base addresses) the analysis
// resolves control flow and addresses from.
type Params struct {
	Core cpu.Config
	Eng  engine.Config
	Hier mem.HierarchyConfig

	// IntArgs presets integer registers, exactly as sim presets them from
	// kernels.Instance.IntArgs.
	IntArgs map[int]uint64

	// WalkBudget caps the symbolic per-stream walk in elements
	// (DefaultWalkElems when zero). MaxSteps caps interpreted instructions
	// (2^26 when zero).
	WalkBudget int64
	MaxSteps   int64
}

// DefaultParams returns Table I machine parameters for the given vector
// width.
func DefaultParams(vecBytes int) Params {
	p := Params{
		Core: cpu.DefaultConfig(),
		Eng:  engine.DefaultConfig(),
		Hier: mem.DefaultHierarchyConfig(),
	}
	p.Core.VecBytes = vecBytes
	p.Eng.VecBytes = vecBytes
	return p
}

// StreamCost is the statically derived work of one stream instance, in the
// units the engine's committed StreamTraffic records use.
type StreamCost struct {
	U     int    `json:"u"`
	Kind  string `json:"kind"`
	Width int    `json:"width"`
	Level string `json:"level"`
	Desc  string `json:"desc"`
	// Complete reports whether the program consumes the whole pattern; the
	// gen-side LineRequests figure is exact only then.
	Complete bool `json:"complete"`

	Elems         Quantity `json:"elems"`
	Bytes         Quantity `json:"bytes"`
	Chunks        Quantity `json:"chunks"`
	DimBoundaries Quantity `json:"dimBoundaries"`
	LineRequests  Quantity `json:"lineRequests"`
	StoreLines    Quantity `json:"storeLines"`
	UniqueLines   Quantity `json:"uniqueLines"`

	Note string `json:"note,omitempty"`
}

// Bounds are cycle lower bounds: the simulated Result.Cycles can never be
// below any of them (the differential tests enforce it).
type Bounds struct {
	Commit       int64            `json:"commit"`
	Issue        int64            `json:"issue"`
	Ports        map[string]int64 `json:"ports"`
	DRAM         int64            `json:"dram"`
	EngineStream int64            `json:"engineStream"`
	EngineTotal  int64            `json:"engineTotal"`
	EngineStore  int64            `json:"engineStore"`
	EngineMRQ    int64            `json:"engineMRQ"`
	// Best is the tightest (largest) of the bounds above.
	Best int64 `json:"best"`
	// BestName names the binding constraint.
	BestName string `json:"bestName"`
}

// Estimate is the full static model of one program run.
type Estimate struct {
	// Exact reports whether every quantity is a point value. When false,
	// Diags explains what degraded and the committed counts are the exact
	// prefix the analysis resolved (still sound as lower bounds).
	Exact bool `json:"exact"`

	Committed Quantity            `json:"committed"`
	ByKind    map[string]Quantity `json:"byKind"`
	Streams   []StreamCost        `json:"streams,omitempty"`

	// ReadOnlyLines / WrittenLines are the statically proven unique line
	// footprints (reads may be under-approximated, writes over-approximated
	// — the directions that keep the DRAM bound sound).
	ReadOnlyLines uint64 `json:"readOnlyLines"`
	WrittenLines  uint64 `json:"writtenLines"`

	Bounds Bounds `json:"bounds"`

	// PredictedBusUtil estimates Fig 8.D bus utilization as mandatory line
	// traffic over the best bound's cycles — an estimate, not a bound.
	PredictedBusUtil float64 `json:"predictedBusUtil"`

	Diags []string `json:"diags,omitempty"`
}

// Analyze runs the static cost model over a verified program.
func Analyze(p *program.Program, params Params) (*Estimate, error) {
	if p == nil {
		return nil, fmt.Errorf("cost: nil program")
	}
	walk := params.WalkBudget
	if walk <= 0 {
		walk = DefaultWalkElems
	}
	steps := params.MaxSteps
	if steps <= 0 {
		steps = 1 << 26
	}
	if params.Core.VecBytes <= 0 {
		return nil, fmt.Errorf("cost: Core.VecBytes must be positive")
	}
	a := newStatic(p, params.Core.VecBytes, walk)
	for r, v := range params.IntArgs {
		a.m.SetReg(isa.X(r), interp.Val{V: v, Known: true})
	}
	a.run(steps)

	est := &Estimate{Exact: !a.bailed, Diags: a.diags}
	if a.bailed {
		est.Diags = append(est.Diags, a.bailMsg)
		est.Committed = Interval(a.m.Committed, Unbounded)
	} else {
		est.Committed = Exact(a.m.Committed)
	}
	est.ByKind = map[string]Quantity{}
	for k := isa.Kind(0); k < isa.KindCount; k++ {
		if a.m.ByKind[k] == 0 {
			continue
		}
		if a.bailed {
			est.ByKind[k.String()] = Interval(a.m.ByKind[k], Unbounded)
		} else {
			est.ByKind[k.String()] = Exact(a.m.ByKind[k])
		}
	}
	if a.bailed {
		tightenBailed(est, p, params)
	}

	if a.unknownLoads > 0 {
		a.diags = append(a.diags,
			fmt.Sprintf("%d load(s) with data-dependent addresses: read footprint under-approximated", a.unknownLoads))
		est.Diags = a.diags
	}
	est.Streams = streamCosts(a)
	for _, sc := range est.Streams {
		if !sc.Elems.IsExact() || !sc.LineRequests.IsExact() {
			est.Exact = false
		}
	}
	buildBounds(est, a, &params)
	return est, nil
}

// streamCosts assembles the per-instance cost records, mirroring how the
// engine's committed StreamTraffic snapshots count: committed chunks for
// core-consumed streams, settled-prefix chunks for engine-consumed origins.
func streamCosts(a *static) []StreamCost {
	var out []StreamCost
	for _, s := range a.m.All {
		if s.Configuring || s.X.w == nil {
			continue
		}
		w := s.X.w
		sc := StreamCost{
			U:     s.U,
			Kind:  s.Kind.String(),
			Width: int(s.W),
			Level: s.Desc.Level.String(),
			Desc:  w.desc.String(),
			Note:  strings.TrimSpace(strings.Join([]string{w.note, w.addrNote}, "; ")),
		}
		sc.Note = strings.Trim(sc.Note, "; ")
		if !w.exact || s.Chunks < 0 || a.bailed {
			sc.Elems = Interval(0, w.hi)
			sc.Bytes = sc.Elems.scale(uint64(s.W))
			sc.Chunks = Interval(0, Unbounded)
			sc.DimBoundaries = Interval(0, Unbounded)
			sc.LineRequests = Interval(0, Unbounded)
			sc.StoreLines = Interval(0, Unbounded)
			sc.UniqueLines = Interval(0, Unbounded)
			if sc.Note == "" {
				sc.Note = "analysis degraded before this stream settled"
			}
			out = append(out, sc)
			continue
		}
		chunks := s.Pos
		if s.X.drained > 0 {
			var cum, c int64
			for c < w.chunks && cum+w.nAt(c) <= s.X.drained {
				cum += w.nAt(c)
				c++
			}
			if c > chunks {
				chunks = c
			}
		}
		elems, dimBounds := w.prefix(chunks)
		sc.Complete = s.Released && chunks == w.chunks
		sc.Elems = Exact(uint64(elems))
		sc.Bytes = Exact(uint64(elems) * uint64(s.W))
		sc.Chunks = Exact(uint64(chunks))
		sc.DimBoundaries = Exact(uint64(dimBounds))
		switch {
		case s.Kind == descriptor.Load && w.addrExact && sc.Complete:
			sc.LineRequests = Exact(uint64(w.lineReqs))
		case s.Kind == descriptor.Load && w.addrExact:
			sc.LineRequests = Interval(0, uint64(w.lineReqs))
		case s.Kind == descriptor.Load:
			sc.LineRequests = Interval(0, uint64(w.elems))
		default:
			sc.LineRequests = Exact(0)
		}
		switch {
		case s.Kind == descriptor.Store && w.addrExact && sc.Complete:
			sc.StoreLines = Exact(uint64(w.storeLines))
		case s.Kind == descriptor.Store && w.addrExact:
			sc.StoreLines = Interval(0, uint64(w.storeLines))
		case s.Kind == descriptor.Store:
			sc.StoreLines = Interval(0, uint64(w.elems))
		default:
			sc.StoreLines = Exact(0)
		}
		if w.addrExact {
			sc.UniqueLines = Exact(uint64(len(w.lines)))
		} else {
			sc.UniqueLines = Interval(0, uint64(w.elems))
		}
		out = append(out, sc)
	}
	return out
}

func ceilDiv(n uint64, d int) int64 {
	if d <= 0 || n == 0 {
		return 0
	}
	return int64((n + uint64(d) - 1) / uint64(d))
}

// buildBounds composes the cycle lower bounds from the exact-prefix tallies
// (sound even after a bail: the real run commits at least the resolved
// prefix) and the settled stream works.
func buildBounds(est *Estimate, a *static, params *Params) {
	b := &est.Bounds
	byKind := &a.m.ByKind
	b.Commit = ceilDiv(a.m.Committed, params.Core.CommitWidth)
	b.Issue = ceilDiv(a.m.Committed, params.Core.IssueWidth)

	// Per-port-group issue throughput, mirroring cpu.groupOf.
	groups := map[string]struct {
		n   uint64
		cap int
	}{
		"int": {byKind[isa.KindIntALU] + byKind[isa.KindBranch] + byKind[isa.KindNop] +
			byKind[isa.KindStreamCfg] + byKind[isa.KindStreamCtl], params.Core.IntALUs},
		"vecfp": {byKind[isa.KindFPALU] + byKind[isa.KindVecALU], params.Core.VecFPUs},
		"load":  {byKind[isa.KindLoad], params.Core.LoadPorts},
		"store": {byKind[isa.KindStore], params.Core.StorePorts},
	}
	b.Ports = map[string]int64{}
	for name, g := range groups {
		b.Ports[name] = ceilDiv(g.n, g.cap)
	}

	// Streaming-engine generator throughput: each settled, fully consumed
	// stream needs its generator steps (serialized per stream, shared across
	// NumModules), every committed store line drains at one line per cycle,
	// and every coalesced line request passes the engine's load-port budget.
	var sumSteps, storeLines, lineReqs int64
	for _, s := range a.m.All {
		w := s.X.w
		if s.Configuring || w == nil || !w.exact || s.Chunks < 0 || a.bailed {
			continue
		}
		if !(s.Released && (s.Pos == w.chunks || s.X.drained >= w.elems)) {
			continue
		}
		steps := w.genSteps()
		if steps > b.EngineStream {
			b.EngineStream = steps
		}
		sumSteps += steps
		if w.addrExact {
			if s.Kind == descriptor.Store {
				storeLines += w.storeLines
			} else {
				lineReqs += w.lineReqs
			}
		}
	}
	b.EngineTotal = ceilDiv(uint64(sumSteps), params.Eng.NumModules)
	b.EngineStore = storeLines
	b.EngineMRQ = ceilDiv(uint64(lineReqs), params.Eng.LoadPorts)

	// DRAM bandwidth: every line that is read and provably never written
	// must be fetched from a cold memory system exactly through its DRAM
	// channel, which serializes one line per LineService cycles. Reads are
	// under-approximated and writes over-approximated, so the bound stays
	// sound; if any store's lines are unknown — or the interpretation
	// bailed, leaving unanalyzed code that could store anywhere — no line
	// is provably read-only and the bound is dropped.
	writesUnknown := a.writesUnknown || a.bailed
	read := map[uint64]struct{}{}
	written := map[uint64]struct{}{}
	for l := range a.readLines {
		read[l] = struct{}{}
	}
	for l := range a.writeLines {
		written[l] = struct{}{}
	}
	for _, s := range a.m.All {
		w := s.X.w
		if s.Configuring || w == nil {
			continue
		}
		if s.Kind == descriptor.Store {
			if w.addrExact {
				for _, l := range w.lines {
					written[l] = struct{}{}
				}
			} else {
				writesUnknown = true
			}
			continue
		}
		if w.addrExact && w.exact && s.Chunks >= 0 && !a.bailed &&
			s.Released && (s.Pos == w.chunks || s.X.drained >= w.elems) {
			for _, l := range w.lines {
				read[l] = struct{}{}
			}
		}
	}
	perChan := make([]uint64, params.Hier.DRAM.Channels)
	var readOnly uint64
	if !writesUnknown {
		for l := range read {
			if _, w := written[l]; w {
				continue
			}
			readOnly++
			perChan[int(l/arch.LineSize)%len(perChan)]++
		}
		ls := int64(params.Hier.DRAM.LineService)
		al := int64(params.Hier.DRAM.AccessLatency)
		for _, k := range perChan {
			if k == 0 {
				continue
			}
			if bd := (int64(k)-1)*ls + al + 1; bd > b.DRAM {
				b.DRAM = bd
			}
		}
	} else {
		est.Diags = append(est.Diags, "store footprint not statically bounded: DRAM bandwidth bound dropped")
	}
	est.ReadOnlyLines = readOnly
	est.WrittenLines = uint64(len(written))

	named := []struct {
		name string
		v    int64
	}{
		{"commit", b.Commit}, {"issue", b.Issue},
		{"dram", b.DRAM},
		{"engine-stream", b.EngineStream}, {"engine-total", b.EngineTotal},
		{"engine-store", b.EngineStore}, {"engine-mrq", b.EngineMRQ},
	}
	var ports []string
	for name := range b.Ports {
		ports = append(ports, name)
	}
	sort.Strings(ports)
	for _, name := range ports {
		named = append(named, struct {
			name string
			v    int64
		}{"port-" + name, b.Ports[name]})
	}
	for _, c := range named {
		if c.v > b.Best {
			b.Best, b.BestName = c.v, c.name
		}
	}

	if b.Best > 0 {
		peak := float64(params.Hier.DRAM.Channels) * arch.LineSize / float64(params.Hier.DRAM.LineService)
		bytes := float64((readOnly + est.WrittenLines) * arch.LineSize)
		est.PredictedBusUtil = bytes / (float64(b.Best) * peak)
	}
}

// Render formats the estimate as the human-readable table uvelint -cost
// prints.
func (e *Estimate) Render() string {
	var sb strings.Builder
	status := "exact"
	if !e.Exact {
		status = "degraded (intervals)"
	}
	fmt.Fprintf(&sb, "committed %s (%s)\n", e.Committed, status)
	var kinds []string
	for k := range e.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, e.ByKind[k])
	}
	if len(e.Streams) > 0 {
		fmt.Fprintf(&sb, "streams:\n")
		fmt.Fprintf(&sb, "  %-3s %-5s %-4s %-9s %-11s %-8s %-8s %-9s %-9s %s\n",
			"u", "kind", "lvl", "elems", "bytes", "chunks", "dims", "linereq", "stlines", "lines")
		for _, s := range e.Streams {
			fmt.Fprintf(&sb, "  %-3d %-5s %-4s %-9s %-11s %-8s %-8s %-9s %-9s %s",
				s.U, s.Kind, s.Level, s.Elems, s.Bytes, s.Chunks, s.DimBoundaries,
				s.LineRequests, s.StoreLines, s.UniqueLines)
			if s.Note != "" {
				fmt.Fprintf(&sb, "  ! %s", s.Note)
			}
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "cycle lower bounds: best %d (%s)\n", e.Bounds.Best, e.Bounds.BestName)
	fmt.Fprintf(&sb, "  commit %d  issue %d  dram %d\n", e.Bounds.Commit, e.Bounds.Issue, e.Bounds.DRAM)
	var ports []string
	for p := range e.Bounds.Ports {
		ports = append(ports, p)
	}
	sort.Strings(ports)
	sb.WriteString("  ports:")
	for _, p := range ports {
		fmt.Fprintf(&sb, " %s %d", p, e.Bounds.Ports[p])
	}
	sb.WriteByte('\n')
	if e.Bounds.EngineStream > 0 || e.Bounds.EngineTotal > 0 {
		fmt.Fprintf(&sb, "  engine: stream %d  total %d  store %d  mrq %d\n",
			e.Bounds.EngineStream, e.Bounds.EngineTotal, e.Bounds.EngineStore, e.Bounds.EngineMRQ)
	}
	fmt.Fprintf(&sb, "predicted bus utilization ≤ %.3f (lines: %d read-only, %d written)\n",
		e.PredictedBusUtil, e.ReadOnlyLines, e.WrittenLines)
	for _, d := range e.Diags {
		fmt.Fprintf(&sb, "note: %s\n", d)
	}
	return sb.String()
}
