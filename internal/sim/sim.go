// Package sim assembles complete machines (core + memory hierarchy, plus
// the Streaming Engine for UVE) and runs kernel instances on them,
// collecting the statistics the paper's evaluation reports.
package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Options overrides pieces of the Table I machine for sensitivity sweeps.
type Options struct {
	Core cpu.Config
	Eng  engine.Config
	Hier mem.HierarchyConfig
	// Fidelity selects the execution tier: Cycle (default) runs the
	// detailed machine; Functional interprets the program in program order
	// for architectural results only (no cycles, no timing stats, and
	// incompatible with Trace and Faults).
	Fidelity Fidelity
	// SkipCheck skips output validation (benchmark loops that re-run the
	// same instance's timing many times).
	SkipCheck bool
	// Sanitize selects the streaming engine's shadow address tracker, which
	// records every byte live streams touch and reports runtime collisions
	// (Result.Collisions). UVE only; it changes no timing, and costs
	// wall-clock time on the order of the run itself. SanitizeAuto elides
	// tracking when the program's static safety certificate proves every
	// dependence pair disjoint (see Result.SanitizerElided).
	Sanitize SanitizeMode
	// Trace, when non-nil, receives typed instrumentation events from the
	// core and (UVE) the streaming engine. Timing is unaffected: the same
	// cycles are simulated with or without a recorder.
	Trace trace.Recorder
	// Faults, when non-nil and enabled, runs the instance under the seeded
	// deterministic fault injectors (NACKed line fetches, mid-stream page
	// faults, DRAM latency spikes, forced generation pauses at dimension
	// boundaries). Injection perturbs timing only; architectural results
	// must match the fault-free run — the resilience oracle in
	// fault_test.go enforces it. A fresh Injector is built per run, so the
	// same Plan always yields the same cycle count.
	Faults *fault.Plan
	// Watchdog, when positive, overrides Core.Watchdog (forward-progress
	// bound in cycles without a commit).
	Watchdog int64
	// MaxCycles, when positive, overrides Core.MaxCycles (hard cycle bound
	// for fault campaigns; livelock becomes a *cpu.WatchdogError).
	MaxCycles int64
	// HashMem records an FNV-1a digest of the final memory image in
	// Result.MemHash — the architectural-state oracle fault campaigns
	// compare against the fault-free run.
	HashMem bool
}

// Clone returns a deep copy: shared pointer fields (Eng.ForceLevel, Faults)
// are duplicated so mutating the copy — or the original, as bench jobs do
// between submit and execution — cannot alias. Trace recorders are shared
// by reference; a recorder is a sink, not configuration.
func (o *Options) Clone() Options {
	c := *o
	if o.Eng.ForceLevel != nil {
		lv := *o.Eng.ForceLevel
		c.Eng.ForceLevel = &lv
	}
	if o.Faults != nil {
		p := *o.Faults
		c.Faults = &p
	}
	return c
}

// DefaultOptions returns the Table I machine for the given variant.
func DefaultOptions(v kernels.Variant) Options {
	o := Options{
		Core: cpu.DefaultConfig(),
		Eng:  engine.DefaultConfig(),
		Hier: mem.DefaultHierarchyConfig(),
	}
	o.Core.VecBytes = v.VecBytes()
	o.Eng.VecBytes = v.VecBytes()
	return o
}

// Result carries the measurements used by the §VI figures.
type Result struct {
	Variant   kernels.Variant
	Kernel    string
	Size      int
	Cycles    int64
	Committed uint64
	Core      cpu.Stats
	Eng       engine.Stats
	DRAM      mem.DRAMStats
	L1        mem.CacheStats
	L2        mem.CacheStats
	// BusUtil is (ReadBW+WriteBW)/PeakBW — the Fig 8.D metric.
	BusUtil float64
	// Collisions holds the stream sanitizer's observations (Options.Sanitize).
	Collisions []engine.Collision
	// Traffic holds the committed per-stream work records (UVE cycle runs
	// only) the static cost model validates against.
	Traffic []engine.StreamTraffic
	// Faults counts the injections actually fired (Options.Faults).
	Faults fault.Stats
	// MemHash is the final memory-image digest (Options.HashMem).
	MemHash uint64
	// SanitizerElided reports that SanitizeAuto skipped shadow tracking
	// because the program's safety certificate proved every dependence pair
	// disjoint — the sanitizer could only have observed zero collisions.
	SanitizerElided bool
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Run builds the kernel at the given size for the variant and executes it
// to completion, validating the output against the kernel's reference.
// size == 0 runs the kernel's DefaultSize; negative sizes are an error.
// Run is RunContext with a background (never-canceled) context.
func Run(k *kernels.Kernel, v kernels.Variant, size int, opts *Options) (*Result, error) {
	return RunContext(context.Background(), k, v, size, opts)
}

// RunBuiltContext runs one kernel instance on a fresh Table I machine for
// the variant: it builds the memory hierarchy, constructs the instance
// against it with the build callback, runs it (RunInstance, with the
// Streaming Engine for UVE) and validates its output. It serves Run and
// custom instances such as the Fig 8.E unrolled GEMMs; id labels the
// Result. Validation errors are returned raw so callers can add kernel
// context. A context that is already done aborts before the build.
func RunBuiltContext(ctx context.Context, id string, v kernels.Variant, size int, opts *Options, build func(h *mem.Hierarchy) *kernels.Instance) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Err: err}
	}
	var o Options
	if opts != nil {
		o = opts.Clone()
	} else {
		o = DefaultOptions(v)
	}
	h := mem.NewHierarchy(o.Hier)
	inst := build(h)
	if inst.Err != nil {
		return nil, fmt.Errorf("%s/%s: %w", id, v, inst.Err)
	}
	res, err := RunInstance(ctx, h, inst, v == kernels.UVE, &o)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", id, v, err)
	}
	res.Variant, res.Kernel, res.Size = v, id, size
	if o.HashMem {
		res.MemHash = h.Mem.HashExtents()
	}
	if !o.SkipCheck && inst.Check != nil {
		if err := inst.Check(); err != nil {
			return res, fmt.Errorf("output mismatch: %w", err)
		}
	}
	return res, nil
}

// RunInstance runs a built instance against a hierarchy the caller owns, on
// the tier o.Fidelity selects: the detailed core (plus the Streaming
// Engine when streaming) or the functional interpreter. It is the one run
// path — kernel runs reach it through RunBuiltContext, the public
// uve.Machine directly. o.Watchdog and o.MaxCycles override the core's
// bounds; o.Hier, HashMem and SkipCheck are the caller's business, as are
// the Result's Variant/Kernel/Size labels. Fault-injection hooks installed
// on h are removed before it returns, so h can outlive the run. The
// context is polled at cycle-batch granularity on the detailed tier
// (instruction-batch on the functional tier) and a done context aborts the
// run with a *CanceledError.
func RunInstance(ctx context.Context, h *mem.Hierarchy, inst *kernels.Instance, streaming bool, opts *Options) (*Result, error) {
	o := *opts
	if o.Watchdog > 0 {
		o.Core.Watchdog = o.Watchdog
	}
	if o.MaxCycles > 0 {
		o.Core.MaxCycles = o.MaxCycles
	}
	if o.Fidelity == Functional {
		return runFunctional(ctx, h, inst, streaming, &o)
	}

	var inj *fault.Injector
	if o.Faults != nil && o.Faults.Enabled() {
		inj = fault.NewInjector(*o.Faults)
		h.TLB.Inject = inj.PageFault
		h.DRAM.Inject = inj.DRAMDelay
		defer func() { h.TLB.Inject, h.DRAM.Inject = nil, nil }()
	}
	sanitize, elided := o.resolveSanitize(streaming, inst)
	var eng *engine.Engine
	if streaming {
		eng = engine.New(o.Eng, h)
		if sanitize {
			eng.EnableSanitizer()
		}
		if o.Trace != nil {
			eng.SetRecorder(o.Trace)
		}
		if inj != nil {
			eng.SetInjector(inj)
		}
	}
	core := cpu.New(o.Core, inst.Prog, h, eng)
	if o.Trace != nil {
		core.SetRecorder(o.Trace)
	}
	for r, val := range inst.IntArgs {
		core.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		core.SetFPReg(r, a.W, a.V)
	}
	installCancel(ctx, core)
	cycles, err := runCore(core, &o)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Cycles:    cycles,
		Committed: core.Stats.Committed,
		Core:      core.Stats,
		DRAM:      h.DRAM.Stats,
		L1:        h.L1D.Stats,
		L2:        h.L2.Stats,
		BusUtil:   h.DRAM.Utilization(cycles),

		SanitizerElided: elided,
	}
	if eng != nil {
		res.Eng = eng.Stats
		res.Collisions = eng.Collisions()
		res.Traffic = eng.Traffic()
	}
	if inj != nil {
		res.Faults = inj.Stats
	}
	return res, nil
}

// runCore executes the core, converting a watchdog abort (livelock or
// cycle-bound trip, expected under adversarial fault plans), a committed
// op the core does not model or a context cancellation into an error —
// for watchdogs, one that carries the structured diagnostic and, when the
// run was traced into a Collector, the tail of the event ring for
// post-mortem context. Other panics are modeling bugs and propagate.
func runCore(core *cpu.Core, o *Options) (cycles int64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch e := r.(type) {
		case *cpu.WatchdogError:
			err = fmt.Errorf("%w%s", e, traceTail(o.Trace))
		case *cpu.UnimplementedError:
			err = e
		case *CanceledError:
			err = e
		default:
			panic(r)
		}
	}()
	return core.Run(), nil
}

// traceTail renders the last few retained trace events for the watchdog
// diagnostic (empty unless the run recorded into a *trace.Collector).
func traceTail(r trace.Recorder) string {
	const tail = 12
	c, ok := r.(*trace.Collector)
	if !ok || c == nil {
		return ""
	}
	evs := c.Events()
	if len(evs) == 0 {
		return ""
	}
	if len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nlast %d trace events:\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(&b, "  cycle %d: %s (%d, %d, %d)\n", e.Cycle, e.Kind, e.Arg0, e.Arg1, e.Arg2)
	}
	return strings.TrimRight(b.String(), "\n")
}

// MustRun is Run that fails the calling benchmark/test via panic on error.
func MustRun(k *kernels.Kernel, v kernels.Variant, size int, opts *Options) *Result {
	r, err := Run(k, v, size, opts)
	if err != nil {
		panic(err)
	}
	return r
}
