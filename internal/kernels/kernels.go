// Package kernels implements the paper's 19 evaluation benchmarks (Fig 8
// left table) three times each: UVE (hand-coded streams, as the authors
// did), SVE-like (predicated vector-length-agnostic code, Fig 1.B shape)
// and NEON-like (fixed 128-bit vectors with scalar tails). Kernels the ARM
// SVE compiler failed to vectorize in the paper (Seidel-2D, the MAMR
// variants, Covariance, Floyd-Warshall) fall back to scalar code in both
// baselines, as the paper reports.
//
// Every kernel also carries a pure-Go reference; Instance.Check validates
// the simulated memory image against it after a run.
package kernels

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/lint"
	"repro/internal/mem"
	"repro/internal/program"
)

// Variant selects the ISA implementation of a kernel.
type Variant int

const (
	UVE Variant = iota
	SVE
	NEON
)

func (v Variant) String() string {
	switch v {
	case UVE:
		return "UVE"
	case SVE:
		return "SVE"
	case NEON:
		return "NEON"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// MarshalText renders the variant by name, so variant-keyed maps and
// fields serialize readably in the -json experiment reports.
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a variant name (the inverse of MarshalText).
func (v *Variant) UnmarshalText(b []byte) error {
	switch string(b) {
	case "UVE":
		*v = UVE
	case "SVE":
		*v = SVE
	case "NEON":
		*v = NEON
	default:
		return fmt.Errorf("unknown variant %q", b)
	}
	return nil
}

// VecBytes returns the vector register width the variant runs with: 512-bit
// for UVE and SVE (the paper's configuration), 128-bit for NEON.
func (v Variant) VecBytes() int {
	if v == NEON {
		return 16
	}
	return arch.MaxVecBytes
}

// FPArg is one floating-point kernel argument.
type FPArg struct {
	W arch.ElemWidth
	V float64
}

// Instance is a built, runnable kernel: program, initialized memory (inside
// the hierarchy it was built against), argument registers and a validator.
// Build never panics on a bad instance: assembly or verification failures
// land in Err (with the full diagnostic list in Diags) and Prog is nil.
type Instance struct {
	Prog      *program.Program
	IntArgs   map[int]uint64
	FPArgs    map[int]FPArg
	Check     func() error
	DataBytes int64

	// Err is the combined build/verify failure, nil for a clean instance.
	Err error
	// Diags holds the static verifier's findings, including warnings that
	// did not fail the build.
	Diags []lint.Diagnostic
	// Deps holds the dependence analyzer's classified stream pairs.
	Deps []lint.DepPair

	builder *program.Builder
	// lintOpts records the verification options finalize ran with, so the
	// same analysis can be replayed over a re-decoded copy of the program
	// (Relint) and compared verdict-for-verdict.
	lintOpts *lint.Options
	// verified reports that Diags and Deps hold the verifier's findings:
	// set by finalize, or by the first Certificate call on an instance
	// assembled outside a Kernel build.
	verified bool
}

// NewInstance wraps a program assembled outside a Kernel build — the
// public Machine's — with its argument registers, to run against m. It has
// no output check. Verification is deferred: the first Certificate call
// analyzes the program with the options a Kernel build would have used
// over the same memory.
func NewInstance(m *mem.Memory, p *program.Program, intArgs map[int]uint64, fpArgs map[int]FPArg) *Instance {
	inst := &Instance{Prog: p, IntArgs: maps.Clone(intArgs), FPArgs: maps.Clone(fpArgs)}
	inst.lintOpts = verifyOptions(m, inst.IntArgs, inst.FPArgs)
	return inst
}

// Certificate returns the static safety certificate of the instance's
// program, verifying the program first if no Kernel build did.
func (inst *Instance) Certificate() lint.SafetyCertificate {
	if !inst.verified {
		inst.Diags, inst.Deps = lint.Analyze(inst.Prog, inst.lintOpts)
		inst.verified = true
	}
	return lint.Certify(inst.Diags, inst.Deps)
}

// Relint re-runs the static verifier over p with exactly the options this
// instance's own program was verified with. The wire-format round-trip
// gate uses it: a decoded program must earn verdicts identical to the
// Builder-built original's.
func (inst *Instance) Relint(p *program.Program) ([]lint.Diagnostic, []lint.DepPair) {
	return lint.Analyze(p, inst.lintOpts)
}

// Kernel describes one benchmark.
type Kernel struct {
	ID      string // Fig 8 row letter
	Name    string
	Domain  string
	Streams int    // concurrent UVE streams (Fig 8 table)
	Loops   int    // #kernels (disjoint loop nests)
	Pattern string // Fig 8 "memory access pattern" column
	// SVEVectorized is false for kernels the paper's ARM compiler did not
	// vectorize; their SVE and NEON baselines run scalar code.
	SVEVectorized bool
	// DefaultSize is the problem-size parameter used by the figure harness.
	DefaultSize int
	// MaxSize is the largest size uveserve admits: the largest whose build,
	// verification and wire encoding, on the kernel's costliest variant,
	// allocate at most 64 MB and take at most 0.5 s on a 2-core host. A
	// request therefore cannot make the service build an unbounded kernel.
	MaxSize int
	// MinSize and SizeStep are the kernel's size grid: its builders accept
	// a size of at least MinSize that is a multiple of SizeStep (0 means
	// any). bench.QuantizeSize snaps sizes onto it.
	MinSize, SizeStep int
	// Build constructs the kernel against h for the given variant and
	// problem size.
	Build func(h *mem.Hierarchy, v Variant, size int) *Instance
}

// All lists the benchmarks in Fig 8 order (A..S).
var All []*Kernel

func init() {
	// Registration order follows source-file order; present Fig 8 order.
	sort.Slice(All, func(i, j int) bool { return All[i].ID < All[j].ID })
}

func register(k *Kernel) *Kernel {
	All = append(All, k)
	return k
}

// ByID returns the kernel with the given Fig 8 letter.
func ByID(id string) *Kernel {
	for _, k := range All {
		if k.ID == id {
			return k
		}
	}
	return nil
}

// --- shared data helpers ---

// lcg is a small deterministic generator for input data.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2654435761 + 1} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 16
}

// f32 returns a deterministic float in (-range, +range).
func (l *lcg) f32(rng float64) float64 {
	v := float64(l.next()%20011)/20011*2 - 1
	return float64(float32(v * rng))
}

// allocF32 allocates and fills a float32 array, returning its base and a Go
// mirror of the initial contents.
func allocF32(h *mem.Hierarchy, n int, fill func(i int) float64) (uint64, []float64) {
	base := h.Mem.Alloc(4*n, arch.LineSize)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(float32(fill(i)))
		vals[i] = v
		h.Mem.WriteFloat(base+uint64(4*i), arch.W4, v)
	}
	return base, vals
}

// allocU64 allocates and fills a uint64 array (index vectors).
func allocU64(h *mem.Hierarchy, n int, fill func(i int) uint64) (uint64, []uint64) {
	base := h.Mem.Alloc(8*n, arch.LineSize)
	vals := make([]uint64, n)
	for i := 0; i < n; i++ {
		vals[i] = fill(i)
		h.Mem.Write(base+uint64(8*i), arch.W8, vals[i])
	}
	return base, vals
}

// checkF32 compares a float32 array in simulated memory against want with a
// relative tolerance (reduction orders differ across vector widths).
func checkF32(h *mem.Hierarchy, name string, base uint64, want []float64, tol float64) error {
	for i, w := range want {
		got := h.Mem.ReadFloat(base+uint64(4*i), arch.W4)
		if !closeEnough(got, w, tol) {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got, w)
		}
	}
	return nil
}

func closeEnough(got, want, tol float64) bool {
	if got == want {
		return true
	}
	d := math.Abs(got - want)
	m := math.Max(math.Abs(got), math.Abs(want))
	return d <= tol*math.Max(m, 1)
}

// instance assembles the common Instance fields around a still-unresolved
// builder. Kernel Build functions fill IntArgs/FPArgs afterwards and pass
// the result through finalize, which assembles and verifies the program.
func instance(b *program.Builder, bytes int64, check func() error) *Instance {
	return &Instance{
		IntArgs:   map[int]uint64{},
		FPArgs:    map[int]FPArg{},
		Check:     check,
		DataBytes: bytes,
		builder:   b,
	}
}

// finalize assembles the instance's program and runs the static verifier
// over it. It runs last in every kernel Build — after IntArgs/FPArgs are
// known — and never panics: failures are reported through Err/Diags.
func finalize(h *mem.Hierarchy, inst *Instance) *Instance {
	opts := verifyOptions(h.Mem, inst.IntArgs, inst.FPArgs)
	inst.lintOpts = opts
	p, err := inst.builder.BuildVerified(func(p *program.Program) error {
		inst.Diags, inst.Deps = lint.Analyze(p, opts)
		return lint.ToError(inst.Diags)
	})
	inst.Prog, inst.Err, inst.verified = p, err, true
	return inst
}

// verifyOptions derives the static verifier's options for a program
// entered with the given argument registers and run against m: the
// argument registers are the entry-defined set (integer values seed the
// value-range analysis) and m's allocations are the legal buffer extents.
func verifyOptions(m *mem.Memory, intArgs map[int]uint64, fpArgs map[int]FPArg) *lint.Options {
	opts := &lint.Options{
		EntryIntVals:      intArgs,
		MaxFootprintElems: MaxFootprintElems,
	}
	for r := range intArgs {
		opts.EntryInt = append(opts.EntryInt, r)
	}
	for r := range fpArgs {
		opts.EntryFP = append(opts.EntryFP, r)
	}
	// The entry sets are semantically unordered, but keeping them sorted
	// means every consumer (and any rendering of the options) is
	// independent of map iteration order.
	sort.Ints(opts.EntryInt)
	sort.Ints(opts.EntryFP)
	for _, e := range m.Extents() {
		opts.Extents = append(opts.Extents, lint.Extent{Base: e.Base, Size: e.Size})
	}
	return opts
}

// MaxFootprintElems caps the verifier's per-stream address enumeration for
// every kernel build (0 uses lint.DefaultMaxFootprintElems). cmd/uvelint's
// -max-footprint flag sets it.
var MaxFootprintElems int64

// lanesFor returns the vector lane count of a variant for width w.
func lanesFor(v Variant, w arch.ElemWidth) int { return arch.LanesFor(v.VecBytes(), w) }
