// Package bench regenerates every table and figure of the paper's
// evaluation (§VI): Fig 8 A–E (instruction reduction, speedup, rename
// blocks, bus utilization, GEMM unrolling), Fig 9 (vector physical
// registers), Fig 10 (FIFO depth), Fig 11 (streaming cache level), the
// stream-processing-module sweep, and the §VI-C storage accounting.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Scale shrinks problem sizes for quick runs: the harness uses
// max(MinSize, DefaultSize/Scale) elements.
type Options struct {
	Scale   int  // 1 = paper-scale defaults
	Verbose bool // print each run as it completes
	// Workers sizes the parallel runner's worker pool: 0 = GOMAXPROCS,
	// 1 = fully sequential.
	Workers int
	// Faults, when set, replaces the default plan as the fault-campaign
	// template (`-exp faults`); its seed is overridden per grid point.
	// Other experiments ignore it — the evaluation figures are fault-free.
	Faults *fault.Plan
	// Watchdog, when positive, tightens the campaign's forward-progress
	// bound (cycles without a commit before a structured abort).
	Watchdog int64

	mu sync.Mutex
	r  *Runner
}

// Runner returns the options' shared parallel runner, creating it on first
// use. Sharing one runner across every experiment of an invocation is what
// lets the memo table simulate the common default-configuration baseline
// exactly once for `uvebench -exp all`.
func (o *Options) Runner() *Runner {
	if o == nil {
		return NewRunner(0)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.r == nil {
		o.r = NewRunner(o.Workers)
	}
	return o.r
}

func (o *Options) scale(size int) int {
	if o == nil || o.Scale <= 1 {
		return size
	}
	s := size / o.Scale
	if s < 1 {
		// Scales beyond DefaultSize must not zero (or, with negative
		// sizes upstream, invert) the intermediate size before SizeFor's
		// per-kernel structural clamps apply.
		s = 1
	}
	return s
}

// SizeFor shrinks a kernel's default size onto the kernel's size grid.
func SizeFor(k *kernels.Kernel, o *Options) int {
	return QuantizeSize(k, o.scale(k.DefaultSize))
}

// QuantizeSize snaps an arbitrary problem size onto the kernel's size grid
// (kernels.Kernel.MinSize and SizeStep). Off it, a builder rejects the size
// (GEMM's lane blocking) or its program computes a wrong result (HACCmk's
// NEON loop runs in whole vectors), so any caller generating sizes (scaled
// sweeps, fuzz harnesses) quantizes here first.
func QuantizeSize(k *kernels.Kernel, n int) int {
	n = max(n, k.MinSize)
	if k.SizeStep > 1 {
		n = n / k.SizeStep * k.SizeStep
	}
	return n
}

// Fig8Row carries one benchmark's measurements across the three machines.
type Fig8Row struct {
	ID, Name      string
	SVEVectorized bool
	Size          int

	Cycles map[kernels.Variant]int64
	Inst   map[kernels.Variant]uint64
	Rename map[kernels.Variant]float64
	BusU   map[kernels.Variant]float64
}

// safeDiv divides, mapping a zero denominator (or a non-finite quotient)
// to 0 instead of NaN/Inf — a zero-cycle run is a degenerate measurement,
// not a meaningful ratio, and non-finite floats would make the -json
// report unmarshalable. Degenerate rows are surfaced explicitly through
// Degenerate.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	q := num / den
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return 0
	}
	return q
}

// SpeedupVs returns UVE speedup over the given baseline (0 when either
// measurement is degenerate).
func (r *Fig8Row) SpeedupVs(v kernels.Variant) float64 {
	return safeDiv(float64(r.Cycles[v]), float64(r.Cycles[kernels.UVE]))
}

// InstReductionVs returns 1 − Inst(UVE)/Inst(baseline), the Fig 8.A metric
// (0 when the baseline committed nothing).
func (r *Fig8Row) InstReductionVs(v kernels.Variant) float64 {
	if r.Inst[v] == 0 {
		return 0
	}
	return 1 - float64(r.Inst[kernels.UVE])/float64(r.Inst[v])
}

// Degenerate reports whether any of the row's cycle counts is zero (its
// ratios are then meaningless and forced to 0).
func (r *Fig8Row) Degenerate() bool {
	for _, v := range fig8Variants {
		if r.Cycles[v] == 0 {
			return true
		}
	}
	return false
}

// fig8Variants are the three Table I machines, in Fig 8 column order.
var fig8Variants = []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON}

// Fig8 runs all benchmarks on all three machines with the Table I
// configuration and collects the Fig 8 A–D metrics. The 19×3 matrix fans
// out over the options' runner; rows come back in Fig 8 order regardless
// of which worker finished first.
func Fig8(o *Options) []Fig8Row {
	var jobs []Job
	for _, k := range kernels.All {
		size := SizeFor(k, o)
		for _, v := range fig8Variants {
			jobs = append(jobs, Job{Kernel: k, Variant: v, Size: size})
		}
	}
	results := mustAll(o.Runner().RunAll(jobs))

	var rows []Fig8Row
	i := 0
	for _, k := range kernels.All {
		size := SizeFor(k, o)
		row := Fig8Row{
			ID: k.ID, Name: k.Name, SVEVectorized: k.SVEVectorized, Size: size,
			Cycles: map[kernels.Variant]int64{},
			Inst:   map[kernels.Variant]uint64{},
			Rename: map[kernels.Variant]float64{},
			BusU:   map[kernels.Variant]float64{},
		}
		for _, v := range fig8Variants {
			res := results[i]
			i++
			row.Cycles[v] = res.Cycles
			row.Inst[v] = res.Committed
			row.Rename[v] = res.Core.RenameBlocksPerCycle()
			row.BusU[v] = res.BusUtil
			if o != nil && o.Verbose {
				fmt.Printf("  %s/%s n=%d: %d cycles, %d inst, IPC %.2f\n",
					k.Name, v, size, res.Cycles, res.Committed, res.IPC())
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// GeoMeanSpeedup aggregates UVE-vs-baseline speedups over the kernels the
// paper includes in its average (only compiler-vectorized ones for SVE).
func GeoMeanSpeedup(rows []Fig8Row, base kernels.Variant, vectorizedOnly bool) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		if vectorizedOnly && !r.SVEVectorized {
			continue
		}
		s := r.SpeedupVs(base)
		if s <= 0 {
			continue // degenerate row: excluded rather than poisoning the mean
		}
		logSum += math.Log(s)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// MeanInstReduction averages the Fig 8.A metric.
func MeanInstReduction(rows []Fig8Row, base kernels.Variant, vectorizedOnly bool) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if vectorizedOnly && !r.SVEVectorized {
			continue
		}
		sum += r.InstReductionVs(base)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRenameReduction compares the average rename-blocks/cycle across the
// kernel set: 1 − mean(UVE)/mean(baseline) (Fig 8.C). Averaging the rates
// first keeps kernels whose baseline barely stalls from dominating.
func MeanRenameReduction(rows []Fig8Row, base kernels.Variant, vectorizedOnly bool) float64 {
	var uveSum, baseSum float64
	for _, r := range rows {
		if vectorizedOnly && !r.SVEVectorized {
			continue
		}
		uveSum += r.Rename[kernels.UVE]
		baseSum += r.Rename[base]
	}
	if baseSum <= 0 {
		return 0
	}
	return 1 - uveSum/baseSum
}

// FormatFig8 renders the A–D panels as a text table.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 — per-benchmark evaluation (Table I machines)\n")
	fmt.Fprintf(&b, "%-2s %-15s %6s | %9s %9s | %7s %7s | %7s %7s | %7s %7s %7s\n",
		"ID", "kernel", "size", "inst-red", "inst-red", "speedup", "speedup",
		"renameB", "renameB", "busU", "busU", "busU")
	fmt.Fprintf(&b, "%-2s %-15s %6s | %9s %9s | %7s %7s | %7s %7s | %7s %7s %7s\n",
		"", "", "", "vs SVE", "vs NEON", "vs SVE", "vs NEON", "UVE", "SVE", "UVE", "SVE", "NEON")
	for _, r := range rows {
		star := ""
		if !r.SVEVectorized {
			star = "*"
		}
		fmt.Fprintf(&b, "%-2s %-15s %6d | %8.1f%% %8.1f%% | %6.2fx %6.2fx | %7.3f %7.3f | %6.1f%% %6.1f%% %6.1f%%\n",
			r.ID, r.Name+star, r.Size,
			100*r.InstReductionVs(kernels.SVE), 100*r.InstReductionVs(kernels.NEON),
			r.SpeedupVs(kernels.SVE), r.SpeedupVs(kernels.NEON),
			r.Rename[kernels.UVE], r.Rename[kernels.SVE],
			100*r.BusU[kernels.UVE], 100*r.BusU[kernels.SVE], 100*r.BusU[kernels.NEON])
	}
	fmt.Fprintf(&b, "\n(*) not vectorized by the paper's ARM SVE compiler: baselines run scalar code\n")
	fmt.Fprintf(&b, "geomean speedup vs SVE (vectorized only): %.2fx   (paper: 2.4x)\n",
		GeoMeanSpeedup(rows, kernels.SVE, true))
	fmt.Fprintf(&b, "geomean speedup vs NEON (all):            %.2fx\n",
		GeoMeanSpeedup(rows, kernels.NEON, false))
	fmt.Fprintf(&b, "mean committed-inst reduction vs SVE:     %.1f%%  (paper: 60.9%%)\n",
		100*MeanInstReduction(rows, kernels.SVE, true))
	fmt.Fprintf(&b, "mean committed-inst reduction vs NEON:    %.1f%%  (paper: 93.2%%)\n",
		100*MeanInstReduction(rows, kernels.NEON, false))
	fmt.Fprintf(&b, "mean rename-block reduction vs SVE:       %.1f%%  (paper: 33.4%%)\n",
		100*MeanRenameReduction(rows, kernels.SVE, true))
	return b.String()
}

// SweepPoint is one (kernel, parameter) measurement of a sensitivity sweep,
// normalized against the kernel's reference configuration.
type SweepPoint struct {
	Kernel  string
	Variant kernels.Variant
	Param   string
	Cycles  int64
	Speedup float64 // reference cycles / cycles
}

// series is one machine variant of a sweep: its points, in run order, and
// the index of the reference point the others are normalized to.
type series struct {
	variant kernels.Variant
	points  []point
	ref     int
}

// point is one sweep setting. set adjusts the job from the variant's
// Table I default (nil keeps the default); a point without a param runs
// only as its series' reference and is not reported.
type point struct {
	param string
	set   func(j *Job)
}

// points labels one point per value with the format and applies the value
// with set.
func points(format string, vals []int, set func(j *Job, v int)) []point {
	ps := make([]point, len(vals))
	for i, v := range vals {
		ps[i] = point{fmt.Sprintf(format, v), func(j *Job) { set(j, v) }}
	}
	return ps
}

// sweep runs the kernel × series × point grid, in that order, in one RunAll
// over the options' runner and normalizes each reported point to its
// series' reference point on the same kernel.
func sweep(o *Options, kernelIDs []string, ss []series) []SweepPoint {
	var jobs []Job
	for _, id := range kernelIDs {
		k := kernels.ByID(id)
		size := SizeFor(k, o)
		for _, s := range ss {
			for _, p := range s.points {
				opts := sim.DefaultOptions(s.variant)
				j := Job{Kernel: k, Variant: s.variant, Size: size, Opts: &opts}
				if p.set != nil {
					p.set(&j)
				}
				jobs = append(jobs, j)
			}
		}
	}
	results := mustAll(o.Runner().RunAll(jobs))

	var out []SweepPoint
	for _, id := range kernelIDs {
		name := kernels.ByID(id).Name
		for _, s := range ss {
			res := results[:len(s.points)]
			results = results[len(s.points):]
			for i, p := range s.points {
				if p.param == "" {
					continue
				}
				out = append(out, SweepPoint{
					Kernel: name, Variant: s.variant, Param: p.param, Cycles: res[i].Cycles,
					Speedup: safeDiv(float64(res[s.ref].Cycles), float64(res[i].Cycles)),
				})
			}
		}
	}
	return out
}

// sensitivityKernels is the Fig 9–11 subset.
var sensitivityKernels = []string{"D", "J", "B", "O"}

// Fig9 sweeps the number of vector physical registers {48, 64, 96} for UVE
// and SVE (paper Fig 9: UVE flat, SVE rising). The 48-PR point is the
// Table I default, so it memo-shares with the Fig 8 baseline run.
func Fig9(o *Options) []SweepPoint {
	prs := points("%dPR", []int{48, 64, 96}, func(j *Job, pr int) { j.Opts.Core.VecPRF = pr })
	return sweep(o, sensitivityKernels, []series{{kernels.UVE, prs, 0}, {kernels.SVE, prs, 0}})
}

// Fig10 sweeps the Load/Store FIFO depth {2, 4, 8, 12} on the UVE machine
// (paper Fig 10: ≥4 needed, 8 slightly better, saturating; MAMR most
// sensitive). Results are normalized to depth 8.
func Fig10(o *Options) []SweepPoint {
	depths := points("depth=%d", []int{2, 4, 8, 12}, func(j *Job, d int) { j.Opts.Eng.FIFODepth = d })
	return sweep(o, append([]string{"E"}, sensitivityKernels...), []series{{kernels.UVE, depths, 2}})
}

// Fig11 sweeps the memory level streams operate over {L1, L2, DRAM}
// (paper Fig 11: L2 generally best). Normalized to L2.
func Fig11(o *Options) []SweepPoint {
	var levels []point
	for _, lvl := range []arch.CacheLevel{arch.LevelL1, arch.LevelL2, arch.LevelMem} {
		levels = append(levels, point{lvl.String(), func(j *Job) { j.Opts.Eng.ForceLevel = &lvl }})
	}
	return sweep(o, sensitivityKernels, []series{{kernels.UVE, levels, 1}})
}

// SPMSweep varies the number of Stream Processing Modules from 2 to 8
// (paper §VI-B: less than 0.1% variation). Normalized to 2 modules.
func SPMSweep(o *Options) []SweepPoint {
	mods := points("%dSPM", []int{2, 4, 8}, func(j *Job, m int) { j.Opts.Eng.NumModules = m })
	return sweep(o, sensitivityKernels, []series{{kernels.UVE, mods, 0}})
}

// Fig8E measures the UVE GEMM with inner-loop unrolling 1/2/4/8 (paper
// Fig 8.E). Normalized to no unrolling.
func Fig8E(o *Options) []SweepPoint {
	unrolls := points("unroll=%d", []int{1, 2, 4, 8}, func(j *Job, f int) {
		size := j.Size
		j.Key = fmt.Sprintf("fig8e-gemm-unroll%d", f)
		j.Build = func(h *mem.Hierarchy) *kernels.Instance { return kernels.UnrolledGemmUVE(h, size, f) }
	})
	return sweep(o, []string{"D"}, []series{{kernels.UVE, unrolls, 0}})
}

// FormatSweep renders sweep points grouped by kernel.
func FormatSweep(title string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	byKernel := map[string][]SweepPoint{}
	var order []string
	for _, p := range pts {
		key := p.Kernel + "/" + p.Variant.String()
		if _, ok := byKernel[key]; !ok {
			order = append(order, key)
		}
		byKernel[key] = append(byKernel[key], p)
	}
	sort.Strings(order)
	for _, key := range order {
		fmt.Fprintf(&b, "  %-18s", key)
		for _, p := range byKernel[key] {
			fmt.Fprintf(&b, "  %s:%6.3f (%d cyc)", p.Param, p.Speedup, p.Cycles)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig8Table renders the Fig 8 left metadata table from the registry.
func FormatFig8Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 benchmark table\n%-2s %-15s %-14s %8s %8s  %s\n",
		"ID", "kernel", "domain", "#streams", "#loops", "pattern")
	for _, k := range kernels.All {
		star := " "
		if !k.SVEVectorized {
			star = "*"
		}
		fmt.Fprintf(&b, "%-2s %-15s %-14s %8d %8d  %s%s\n",
			k.ID, k.Name, k.Domain, k.Streams, k.Loops, k.Pattern, star)
	}
	return b.String()
}

// FormatTable1 renders the machine configuration (Table I).
func FormatTable1() string {
	c := cpu.DefaultConfig()
	hc := mem.DefaultHierarchyConfig()
	ec := engine.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — CPU model configuration\n")
	fmt.Fprintf(&b, "  core:    %d-wide fetch/commit, %d-wide issue; ROB %d, IQ %d (%d/port), LQ %d, SQ %d\n",
		c.FetchWidth, c.IssueWidth, c.ROBSize, c.IQSize, c.SchedSize, c.LQSize, c.SQSize)
	fmt.Fprintf(&b, "  PRFs:    %d int, %d FP, %d x %d-bit vector, %d predicate\n",
		c.IntPRF, c.FPPRF, c.VecPRF, c.VecBytes*8, c.PredPRF)
	fmt.Fprintf(&b, "  FUs:     %d int ALUs, %d vector/FP, %d load + %d store ports\n",
		c.IntALUs, c.VecFPUs, c.LoadPorts, c.StorePorts)
	fmt.Fprintf(&b, "  engine:  %d SPMs, %d-entry FIFOs, %d streams (%d physical), MRQ %d\n",
		ec.NumModules, ec.FIFODepth, ec.LogStreams, ec.PhysStreams, ec.MRQSize)
	fmt.Fprintf(&b, "  L1-D:    %d KB %d-way, %d-cycle hit, stride prefetcher depth %d (baseline)\n",
		hc.L1.SizeBytes>>10, hc.L1.Ways, hc.L1.HitLatency, hc.StrideDepth)
	fmt.Fprintf(&b, "  L2:      %d KB %d-way, %d-cycle hit, AMPM prefetcher (baseline)\n",
		hc.L2.SizeBytes>>10, hc.L2.Ways, hc.L2.HitLatency)
	fmt.Fprintf(&b, "  DRAM:    %d channels, %d-cycle access, %d cycles/line per channel (DDR3-1600-class)\n",
		hc.DRAM.Channels, hc.DRAM.AccessLatency, hc.DRAM.LineService)
	return b.String()
}

// FormatHW renders the §VI-C storage accounting.
func FormatHW() string {
	table, mrq, fifos := engine.StorageFootprint(engine.DefaultConfig())
	small := engine.DefaultConfig()
	small.LogStreams = 8
	st, sm, sf := engine.StorageFootprint(small)
	var b strings.Builder
	fmt.Fprintf(&b, "§VI-C — Streaming Engine storage accounting\n")
	fmt.Fprintf(&b, "  Stream Table + SCROB: %6d B  (paper: ≈14 KB)\n", table)
	fmt.Fprintf(&b, "  Memory Request Queue: %6d B  (paper: 160 B)\n", mrq)
	fmt.Fprintf(&b, "  Load/Store FIFOs:     %6d B  (paper: ≈17 KB)\n", fifos)
	fmt.Fprintf(&b, "  total:                %6d B\n", table+mrq+fifos)
	fmt.Fprintf(&b, "  reduced (8 streams):  %6d B  (paper: ≈6 KB + FIFOs)\n", st+sm+sf)
	return b.String()
}

// Ablations quantifies the design choices DESIGN.md calls out, beyond the
// paper's own sweeps: the baseline without its hardware prefetchers, and
// the engine restricted to a single load port. The default-configuration
// references memo-share with Fig 8 under `-exp all`.
func Ablations(o *Options) []SweepPoint {
	return sweep(o, []string{"C", "D", "B", "F"}, []series{
		{kernels.SVE, []point{{}, {"no-prefetch", func(j *Job) { j.Opts.Hier.Prefetchers = false }}}, 0},
		{kernels.UVE, []point{{}, {"1-load-port", func(j *Job) { j.Opts.Eng.LoadPorts = 1 }}}, 0},
	})
}
