// Package uve is a library-level reproduction of "Unlimited Vector
// Extension with Data Streaming Support" (Domingos, Neves, Roma, Tomás —
// ISCA 2021): a vector-length-agnostic SIMD ISA whose memory accesses are
// described once, at the loop preamble, as hierarchical stream descriptors
// and then executed autonomously by a Streaming Engine embedded in an
// out-of-order core.
//
// The package exposes three layers:
//
//   - Stream descriptors (NewLoadStream/NewStoreStream): the §II pattern
//     model — n-dimensional affine sequences with static and indirect
//     modifiers — usable standalone for address-sequence generation.
//   - Programs (NewProgram plus the assembler constructors in asm.go): the
//     UVE instruction set, the SVE-like and NEON-like baseline subsets, and
//     the scalar base ISA.
//   - Machines (NewMachine): cycle-level models of the paper's Table I
//     out-of-order core, two-level MOESI cache hierarchy with baseline
//     prefetchers, DDR3-class DRAM, and the Streaming Engine.
//
// See examples/ for runnable end-to-end programs and cmd/uvebench for the
// harness regenerating the paper's evaluation figures.
package uve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Element widths (bytes) of stream and vector elements.
const (
	W1 = arch.W1
	W2 = arch.W2
	W4 = arch.W4
	W8 = arch.W8
)

// Memory levels a stream can be configured to operate over (so.cfg.memx).
const (
	LevelL1  = arch.LevelL1
	LevelL2  = arch.LevelL2
	LevelMem = arch.LevelMem
)

// ElemWidth is the element width in bytes.
type ElemWidth = arch.ElemWidth

// CacheLevel selects the memory level a stream operates over.
type CacheLevel = arch.CacheLevel

// Program is a resolved instruction sequence.
type Program = program.Program

// ProgramBuilder assembles programs with labels (see NewProgram).
type ProgramBuilder = program.Builder

// NewProgram starts an assembler-style program builder.
func NewProgram(name string) *ProgramBuilder { return program.NewBuilder(name) }

// Config selects the machine configuration. The zero value is not valid;
// start from DefaultConfig (the paper's Table I machine) or NEONConfig.
type Config struct {
	Core   cpu.Config
	Engine engine.Config
	Memory mem.HierarchyConfig
	// Streaming enables the Streaming Engine (the UVE machine). Baseline
	// machines leave it false and rely on the hardware prefetchers.
	Streaming bool
}

// DefaultConfig is the paper's Table I configuration with streaming enabled:
// a Cortex-A76-class out-of-order core with 512-bit vectors and the
// Streaming Engine.
func DefaultConfig() Config {
	return Config{
		Core:      cpu.DefaultConfig(),
		Engine:    engine.DefaultConfig(),
		Memory:    mem.DefaultHierarchyConfig(),
		Streaming: true,
	}
}

// SVEConfig is the baseline machine the paper compares against: the same
// core and memory system (including the stride and AMPM prefetchers), 512-bit
// vectors, no Streaming Engine.
func SVEConfig() Config {
	c := DefaultConfig()
	c.Streaming = false
	return c
}

// NEONConfig is the fixed-width 128-bit baseline.
func NEONConfig() Config {
	c := SVEConfig()
	c.Core.VecBytes = 16
	return c
}

// TraceCollector retains a window of instrumentation events plus the full
// per-cycle stall attribution; pass it to WithTrace.
type TraceCollector = trace.Collector

// NewTraceCollector builds a collector keeping up to ringSize recent events
// with the stall attribution folded over intervals of the given cycle count
// (<= 0 folds the whole run into one interval).
func NewTraceCollector(ringSize int, interval int64) *TraceCollector {
	return trace.NewCollector(ringSize, interval)
}

// FaultPlan configures the deterministic fault injectors (see WithFaults).
type FaultPlan = fault.Plan

// FaultStats counts the injections that actually fired during a run.
type FaultStats = fault.Stats

// DefaultFaultPlan is a moderate all-channel campaign for the given seed.
func DefaultFaultPlan(seed uint64) FaultPlan { return fault.DefaultPlan(seed) }

// ParseFaultPlan parses a comma-separated key=value campaign spec
// (e.g. "seed=7,nack=100,pf=50"); the empty spec is DefaultFaultPlan(1).
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.ParsePlan(spec) }

// Collision is one runtime overlap observed by the stream sanitizer.
type Collision = engine.Collision

// WatchdogError is the structured diagnostic a run fails with when it
// stops making progress (see WithWatchdog and FaultPlan-induced livelock
// conversion): it carries the cycle, the ROB head, and the engine's
// stream-table dump.
type WatchdogError = cpu.WatchdogError

// Result carries the measurements of one run.
type Result struct {
	// Cycles to commit the program's halt (the paper's performance metric).
	Cycles int64
	// Committed architectural instructions.
	Committed uint64
	// Core, Engine, DRAM, L1 and L2 statistics.
	Core   cpu.Stats
	Engine engine.Stats
	DRAM   mem.DRAMStats
	L1     mem.CacheStats
	L2     mem.CacheStats
	// BusUtil is (read+write bandwidth)/peak DRAM bandwidth over the run.
	BusUtil float64
	// Collisions holds the stream sanitizer's observations (WithSanitize).
	Collisions []Collision
	// Faults counts the injections that fired (WithFaults).
	Faults FaultStats
	// SanitizerElided reports that SanitizeAuto skipped shadow tracking on
	// the strength of the program's static safety certificate.
	SanitizerElided bool
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Machine is one simulated system: memory + caches + optional Streaming
// Engine. Allocate data with Alloc/Float32s/Uint64s, then Run programs.
type Machine struct {
	// opts holds the hardware description and the cross-cutting run
	// settings the functional options configure.
	opts      sim.Options
	streaming bool
	hier      *mem.Hierarchy
}

// Option configures a Machine beyond its hardware Config.
type Option func(*sim.Options)

// SanitizeMode selects how a run decides whether the stream sanitizer
// (shadow address tracking) is enabled; see WithSanitize.
type SanitizeMode = sim.SanitizeMode

const (
	// SanitizeOff never tracks (the default).
	SanitizeOff = sim.SanitizeOff
	// SanitizeOn always tracks on streaming machines.
	SanitizeOn = sim.SanitizeOn
	// SanitizeAuto statically verifies the program first and elides
	// tracking when the safety certificate proves every simultaneously-live
	// access pair disjoint — a certified run can only ever observe zero
	// collisions, so skipping the tracker is observationally identical and
	// much faster. Uncertified programs and fault-injected runs track
	// exactly like SanitizeOn. Result.SanitizerElided reports the outcome.
	SanitizeAuto = sim.SanitizeAuto
)

// WithSanitize selects the streaming engine's shadow address tracker mode:
// under SanitizeOn every byte live streams touch is recorded and runtime
// collisions are reported in Result.Collisions (byte-granular — meant for
// verification runs at test sizes, not timing experiments); SanitizeAuto
// elides the tracker when static analysis proves it could observe nothing.
func WithSanitize(m SanitizeMode) Option { return func(o *sim.Options) { o.Sanitize = m } }

// WithTrace streams typed instrumentation events from the core and the
// streaming engine into c. Timing is unaffected: the same cycles are
// simulated with or without a recorder.
func WithTrace(c *TraceCollector) Option {
	return func(o *sim.Options) {
		if c != nil { // a nil collector must not become a non-nil Recorder
			o.Trace = c
		}
	}
}

// WithFaults runs every program under the seeded deterministic fault
// injectors: NACKed line fetches with bounded retry/backoff, page faults
// raised mid-stream (squash + replay of speculative FIFO state), transient
// DRAM latency spikes, and forced stream pauses at dimension boundaries.
// Injection perturbs timing only — architectural results are unchanged —
// and the same plan reproduces the same run, cycle for cycle. A fresh
// injector is built per Run call.
func WithFaults(p FaultPlan) Option {
	return func(o *sim.Options) { o.Faults = &p }
}

// WithWatchdog overrides the forward-progress bound: a run that commits
// nothing for n cycles fails with a *WatchdogError instead of running
// forever. WithFaults campaigns combine it with WithMaxCycles to convert
// injection-induced livelock into a structured diagnostic.
func WithWatchdog(n int64) Option { return func(o *sim.Options) { o.Watchdog = n } }

// WithMaxCycles aborts any run exceeding n cycles with a *WatchdogError —
// a hard, wall-clock-free bound for adversarial campaigns.
func WithMaxCycles(n int64) Option { return func(o *sim.Options) { o.MaxCycles = n } }

// Fidelity selects the execution tier a Machine runs programs on.
type Fidelity = sim.Fidelity

const (
	// Cycle is the detailed tier: the out-of-order core, streaming engine
	// and memory hierarchy simulated cycle by cycle. The default.
	Cycle = sim.Cycle
	// Functional is the fast tier: program-order interpretation with eager
	// stream iteration. Produces final memory, committed counts and
	// sanitizer collisions, but Result.Cycles and every timing statistic
	// stay zero. Incompatible with WithTrace and WithFaults.
	Functional = sim.Functional
)

// WithFidelity selects the execution tier (default Cycle). The functional
// tier answers "what did the program compute" one to two orders of
// magnitude faster than the detailed machine; use it for correctness
// loops, sanitizer sweeps and test baselines, never for timing.
func WithFidelity(f Fidelity) Option { return func(o *sim.Options) { o.Fidelity = f } }

// NewMachine builds a machine.
func NewMachine(cfg Config, opts ...Option) *Machine {
	m := &Machine{
		opts:      sim.Options{Core: cfg.Core, Eng: cfg.Engine, Hier: cfg.Memory},
		streaming: cfg.Streaming,
		hier:      mem.NewHierarchy(cfg.Memory),
	}
	m.opts.Eng.VecBytes = cfg.Core.VecBytes
	for _, o := range opts {
		o(&m.opts)
	}
	return m
}

// VecBytes returns the machine's vector register width in bytes.
func (m *Machine) VecBytes() int { return m.opts.Core.VecBytes }

// Lanes returns the vector lane count for elements of width w.
func (m *Machine) Lanes(w ElemWidth) int { return arch.LanesFor(m.opts.Core.VecBytes, w) }

// Alloc reserves size bytes of simulated memory, cache-line aligned.
func (m *Machine) Alloc(size int) uint64 { return m.hier.Mem.Alloc(size, arch.LineSize) }

// Float32s allocates a float32 array in simulated memory.
func (m *Machine) Float32s(n int) *F32Array {
	return &F32Array{m: m.hier.Mem, Base: m.Alloc(4 * n), N: n}
}

// Uint64s allocates a uint64 array in simulated memory (index vectors).
func (m *Machine) Uint64s(n int) *U64Array {
	return &U64Array{m: m.hier.Mem, Base: m.Alloc(8 * n), N: n}
}

// CanceledError is the typed error RunContext fails with when its context
// is canceled or its deadline expires. It wraps the context's own error
// (errors.Is sees context.Canceled / context.DeadlineExceeded through it)
// and records how far the run had progressed: Cycle on the detailed tier,
// Insts on the functional tier.
type CanceledError = sim.CanceledError

// Run executes a program to completion and returns its measurements.
// args preset architectural registers before the run (kernel arguments).
// Run is RunContext with a background (never-canceled) context.
func (m *Machine) Run(p *Program, args ...Arg) (*Result, error) {
	return m.RunContext(context.Background(), p, args...)
}

// RunContext is Run with cancellation and deadline support: the context
// is polled at cycle-batch granularity on the detailed tier (and at
// instruction-batch granularity on the functional tier), so a canceled
// context stops a multi-million-cycle simulation promptly. The run then
// fails with a *CanceledError wrapping ctx.Err(). The machine's simulated
// memory may have been partially written by the aborted run; the machine
// itself remains usable.
func (m *Machine) RunContext(ctx context.Context, p *Program, args ...Arg) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Err: err}
	}
	// Programs reach a Machine unverified, so a malformed one can trip a
	// model invariant mid-run: report it as an error, not a crash.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("uve: simulation aborted: %v", r)
		}
	}()
	ints, fps := argRegs(args)
	inst := kernels.NewInstance(m.hier.Mem, p, ints, fps)
	r, err := sim.RunInstance(ctx, m.hier, inst, m.streaming, &m.opts)
	if err != nil {
		// Watchdog and cancellation errors are typed diagnostics that
		// print as themselves; everything else gains the package prefix.
		var wd *WatchdogError
		var ce *CanceledError
		if errors.As(err, &wd) || errors.As(err, &ce) {
			return nil, err
		}
		return nil, fmt.Errorf("uve: %w", err)
	}
	return &Result{
		Cycles:          r.Cycles,
		Committed:       r.Committed,
		Core:            r.Core,
		Engine:          r.Eng,
		DRAM:            r.DRAM,
		L1:              r.L1,
		L2:              r.L2,
		BusUtil:         r.BusUtil,
		Collisions:      r.Collisions,
		Faults:          r.Faults,
		SanitizerElided: r.SanitizerElided,
	}, nil
}

// Arg presets an architectural register before a run.
type Arg struct {
	reg int
	fp  bool
	x   uint64
	f   kernels.FPArg
}

// IntArg places v in integer register xN.
func IntArg(n int, v uint64) Arg { return Arg{reg: n, x: v} }

// FloatArg places v (width w) in FP register fN.
func FloatArg(n int, w ElemWidth, v float64) Arg {
	return Arg{reg: n, fp: true, f: kernels.FPArg{W: w, V: v}}
}

// argRegs collects args into integer and FP register presets; a later Arg
// for the same register wins.
func argRegs(args []Arg) (map[int]uint64, map[int]kernels.FPArg) {
	ints, fps := map[int]uint64{}, map[int]kernels.FPArg{}
	for _, a := range args {
		if a.fp {
			fps[a.reg] = a.f
		} else {
			ints[a.reg] = a.x
		}
	}
	return ints, fps
}

// CostEstimate is the static cost model's result: exact (or explicitly
// interval-valued) committed-instruction and per-stream traffic counts plus
// a set of proved cycle lower bounds. See EstimateCost.
type CostEstimate = cost.Estimate

// CostQuantity is one statically derived count: a point value when the
// analysis can prove it, an explicit [lo,hi] interval otherwise.
type CostQuantity = cost.Quantity

// EstimateCost runs the static descriptor cost model over p on this
// machine's configuration, without simulating: exact per-stream element,
// byte, chunk and cache-line counts (closed form for affine descriptors, a
// budgeted symbolic walk otherwise), committed-instruction counts, and
// roofline-style cycle lower bounds (commit/issue width, port groups, DRAM
// bandwidth, stream-engine throughput). Every reported quantity is either
// exact — differentially validated against the simulator's counters — or an
// explicit interval with a diagnostic; simulated Result.Cycles can never be
// below any reported bound. Only integer args matter (addresses and sizes);
// FloatArgs are ignored.
func (m *Machine) EstimateCost(p *Program, args ...Arg) (*CostEstimate, error) {
	ints, _ := argRegs(args)
	return cost.Analyze(p, cost.Params{Core: m.opts.Core, Eng: m.opts.Eng, Hier: m.opts.Hier, IntArgs: ints})
}

// F32Array is a float32 array in simulated memory.
type F32Array struct {
	m    *mem.Memory
	Base uint64
	N    int
}

// Set writes element i.
func (a *F32Array) Set(i int, v float64) { a.m.WriteFloat(a.Base+uint64(4*i), arch.W4, v) }

// At reads element i.
func (a *F32Array) At(i int) float64 { return a.m.ReadFloat(a.Base+uint64(4*i), arch.W4) }

// Fill sets every element from f.
func (a *F32Array) Fill(f func(i int) float64) {
	for i := 0; i < a.N; i++ {
		a.Set(i, f(i))
	}
}

// Slice copies the array out of simulated memory.
func (a *F32Array) Slice() []float64 {
	out := make([]float64, a.N)
	for i := range out {
		out[i] = a.At(i)
	}
	return out
}

// U64Array is a uint64 array in simulated memory.
type U64Array struct {
	m    *mem.Memory
	Base uint64
	N    int
}

// Set writes element i.
func (a *U64Array) Set(i int, v uint64) { a.m.Write(a.Base+uint64(8*i), arch.W8, v) }

// At reads element i.
func (a *U64Array) At(i int) uint64 { return a.m.Read(a.Base+uint64(8*i), arch.W8) }

// Fill sets every element from f.
func (a *U64Array) Fill(f func(i int) uint64) {
	for i := 0; i < a.N; i++ {
		a.Set(i, f(i))
	}
}
