// Package program represents decoded instruction sequences and provides an
// assembler-style builder with labels, matching how the paper's benchmark
// kernels were hand-written in extended-GNU-assembler syntax (§V).
package program

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/descriptor"
	"repro/internal/isa"
)

// Program is a fully resolved instruction sequence. Instruction indices act
// as program counters; branch targets are indices.
type Program struct {
	Name   string
	Insts  []isa.Inst
	Labels map[string]int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Insts) }

// haltInst is what a pc outside the program holds: the implicit halt.
var haltInst = isa.Halt()

// At returns the instruction at pc, by pointer into the program so that no
// caller copies it: the program is read-only while it runs, and callers
// (the cycle core's ROB, the shared stepper) keep the pointer. Out-of-range
// PCs (wrong-path fetch past the end) get a halt so speculation dies out
// naturally. This masking is a fetch-path convenience only: programs
// arriving from outside the Builder (the wire decoder) have their
// branch-target ranges validated up front, so a corrupt target is a
// positioned error there, never a silent halt here.
func (p *Program) At(pc int) *isa.Inst {
	if pc < 0 || pc >= len(p.Insts) {
		return &haltInst
	}
	return &p.Insts[pc]
}

func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (%d insts)\n", p.Name, len(p.Insts))
	// Build the pc→labels back-map from the sorted label names, so two
	// labels on one instruction always print in the same order (map
	// iteration order must never reach the rendered text).
	names := make([]string, 0, len(p.Labels))
	for l := range p.Labels {
		names = append(names, l)
	}
	sort.Strings(names)
	back := make(map[int][]string)
	for _, l := range names {
		back[p.Labels[l]] = append(back[p.Labels[l]], l)
	}
	for i, in := range p.Insts {
		for _, l := range back[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %3d  %s\n", i, in.String())
	}
	return b.String()
}

// Builder assembles a Program.
type Builder struct {
	name   string
	insts  []isa.Inst
	labels map[string]int
	errs   []error
}

// NewBuilder starts a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Label binds a name to the next emitted instruction's index.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

// I emits instructions.
func (b *Builder) I(insts ...isa.Inst) *Builder {
	b.insts = append(b.insts, insts...)
	return b
}

// ConfigStream emits the configuration µOp sequence for a stream: one
// instruction per dimension and modifier, as UVE assembly does.
func (b *Builder) ConfigStream(u int, d *descriptor.Descriptor) *Builder {
	return b.I(isa.SCfgParts(u, d)...)
}

// Errorf records a build error without aborting assembly; Build surfaces
// every accumulated error. Kernel emitters use it for size preconditions so
// that an invalid instance fails with a diagnostic instead of a panic.
func (b *Builder) Errorf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return b
}

// Build resolves labels and returns the program. All accumulated errors —
// emission-time errors and unresolved labels alike — are returned joined,
// prefixed with the builder's name.
func (b *Builder) Build() (*Program, error) {
	errs := append([]error(nil), b.errs...)
	insts := append([]isa.Inst(nil), b.insts...)
	for i := range insts {
		in := &insts[i]
		if !in.Op.IsBranch() {
			continue
		}
		if in.Label == "" {
			errs = append(errs, fmt.Errorf("inst %d (%s): branch without label", i, in.Op.Name()))
			continue
		}
		t, ok := b.labels[in.Label]
		if !ok {
			errs = append(errs, fmt.Errorf("inst %d (%s): undefined label %q", i, in.Op.Name(), in.Label))
			continue
		}
		in.Target = t
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("program %s: %w", b.name, errors.Join(errs...))
	}
	return &Program{Name: b.name, Insts: insts, Labels: b.labels}, nil
}

// BuildVerified is Build followed by a verification pass over the resolved
// program. The pass is supplied as a closure so that callers can plug in a
// static verifier (internal/lint) without this package depending on it; a
// non-nil error from verify fails the build the same way a label error does.
func (b *Builder) BuildVerified(verify func(*Program) error) (*Program, error) {
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	if verify != nil {
		if err := verify(p); err != nil {
			return nil, fmt.Errorf("program %s: %w", b.name, err)
		}
	}
	return p, nil
}

// MustBuild is Build that panics on error, for statically known kernels.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
