// Package lint statically verifies UVE, SVE and NEON programs before they
// reach the simulator. The paper's central claim (§II–§III) is that a
// stream's whole memory behaviour is described once, at the loop preamble,
// by its hierarchical descriptor — which makes stream lifecycle bugs,
// descriptor/buffer mismatches and predication errors statically decidable.
// The verifier walks the control-flow graph recovered from branch targets
// and runs four check families:
//
//   - stream lifecycle: configuration µOp sequencing, use-before-configure,
//     dead configurations, the suspend/resume/force state machine of §III-B,
//     and indirect-origin ordering;
//   - descriptor footprint: the exact address sequence of every non-indirect
//     descriptor (descriptor.Iterator) checked against the declared buffer
//     extents;
//   - register dataflow: must-defined scalar/vector/predicate def-before-use
//     along all CFG paths and element-width agreement between predicate
//     producers (whilelt/ptrue) and their consumers;
//   - CFG sanity: unreachable instructions, loops with no exit, and control
//     falling off the end of the program.
//
// Stream states are tracked as may-sets: streams that end in lockstep with a
// branch-tested sibling (the Floyd-Warshall and irsmk idiom) stay "active"
// rather than producing false positives, and reconfiguring a live stream is
// legal — the engine renames stream slots (§III-A2) — as long as the
// previous configuration was consumed.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/program"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warn marks findings that do not stop a program from running.
	Warn Severity = iota
	// Error marks findings that make the program wrong or non-terminating.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one verifier finding, anchored to an instruction.
type Diagnostic struct {
	PC       int // instruction index; -1 for whole-program findings
	Op       string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	if d.PC < 0 {
		return fmt.Sprintf("%s: %s", d.Severity, d.Message)
	}
	return fmt.Sprintf("%d: %s: %s [%s]", d.PC, d.Severity, d.Message, d.Op)
}

// Extent declares one legal buffer: [Base, Base+Size) in byte addresses.
type Extent struct {
	Base uint64
	Size int64
}

// Options parameterizes a verification run.
type Options struct {
	// EntryInt and EntryFP list scalar registers holding kernel arguments at
	// entry (x0 is always defined; p0 is always the all-true predicate).
	EntryInt []int
	EntryFP  []int
	// EntryIntVals optionally supplies the known entry values of EntryInt
	// registers; they seed the value-range analysis (internal/absint) that
	// bounds store addresses for the dependence analyzer.
	EntryIntVals map[int]uint64
	// Extents are the program's declared buffers. Empty disables the
	// descriptor footprint check.
	Extents []Extent
	// MaxFootprintElems caps per-stream address enumeration (0 = default).
	// Streams longer than the cap are checked up to it.
	MaxFootprintElems int64
	// VecBytes is the physical vector width the program will run with, when
	// known. It tightens the value-range analysis's lane-dependent bounds;
	// zero assumes the architected maximum (sound: effective widths only
	// shrink).
	VecBytes int
}

// DefaultMaxFootprintElems bounds footprint enumeration so that verifying a
// paper-scale kernel stays a negligible fraction of simulating it.
const DefaultMaxFootprintElems = 1 << 21

// Check verifies p and returns its findings sorted by instruction index.
// opts may be nil.
func Check(p *program.Program, opts *Options) []Diagnostic {
	diags, _ := Analyze(p, opts)
	return diags
}

// Analyze verifies p like Check and additionally returns the inter-stream
// dependence pairs the analyzer classified (every program point where two
// streams — or a scalar store and a stream — are simultaneously live).
// opts may be nil.
func Analyze(p *program.Program, opts *Options) ([]Diagnostic, []DepPair) {
	if opts == nil {
		opts = &Options{}
	}
	c := &checker{p: p, opts: opts, insts: p.Insts}
	c.run()
	sort.SliceStable(c.diags, func(i, j int) bool { return c.diags[i].PC < c.diags[j].PC })
	return c.diags, c.deps
}

// HasErrors reports whether any diagnostic has Error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// ToError folds Error-severity diagnostics into a single error, or nil when
// the program is clean (warnings do not fail a build).
func ToError(diags []Diagnostic) error {
	var msgs []string
	for _, d := range diags {
		if d.Severity == Error {
			msgs = append(msgs, d.String())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("lint: %s", strings.Join(msgs, "; "))
}
