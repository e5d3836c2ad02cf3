package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// Fidelity selects the execution tier a run uses.
type Fidelity int

const (
	// Cycle is the detailed tier: the out-of-order core, streaming engine
	// and memory hierarchy simulated cycle by cycle. The default.
	Cycle Fidelity = iota
	// Functional is the fast tier: program-order interpretation with eager
	// stream iteration (internal/funcsim). Produces final memory, committed
	// counts and sanitizer collisions, but no cycles and no timing stats.
	Functional
)

// String returns the CLI spelling of the fidelity.
func (f Fidelity) String() string {
	switch f {
	case Cycle:
		return "cycle"
	case Functional:
		return "functional"
	}
	return fmt.Sprintf("Fidelity(%d)", int(f))
}

// ParseFidelity parses a CLI spelling ("cycle" or "functional").
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "cycle":
		return Cycle, nil
	case "functional":
		return Functional, nil
	}
	return Cycle, fmt.Errorf("unknown fidelity %q (want cycle or functional)", s)
}

// runFunctional is RunInstance's Functional-tier path: it interprets the
// instance in program order and fills the architectural subset of Result
// (Committed, per-kind counts, Collisions). Timing fields stay zero — a
// functional Result answers "what did the program compute", never "how
// fast".
func runFunctional(ctx context.Context, h *mem.Hierarchy, inst *kernels.Instance, streaming bool, o *Options) (*Result, error) {
	if o.Trace != nil {
		return nil, errors.New("functional fidelity cannot record traces (no cycles to attribute events to)")
	}
	if o.Faults != nil && o.Faults.Enabled() {
		return nil, errors.New("functional fidelity cannot inject faults (injectors perturb timing, which the tier does not model)")
	}
	sanitize, elided := o.resolveSanitize(streaming, inst)
	cfg := funcsim.Config{
		VecBytes: o.Core.VecBytes,
		Sanitize: sanitize,
	}
	// The detailed tier bounds runs in cycles; translate the same knob into
	// an instruction budget (commit width retires at most that many per
	// cycle, so the bound is never tighter than the cycle model's).
	if o.Core.MaxCycles > 0 {
		cfg.MaxInsts = o.Core.MaxCycles * int64(o.Core.CommitWidth)
	}
	installFuncCancel(ctx, &cfg)
	fm := funcsim.New(cfg, inst.Prog, h.Mem)
	for r, val := range inst.IntArgs {
		fm.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		fm.SetFPReg(r, a.W, a.V)
	}
	if err := fm.Run(); err != nil {
		return nil, err
	}
	res := &Result{
		Committed:  fm.Committed(),
		Collisions: fm.Collisions(),

		SanitizerElided: elided,
	}
	res.Core.Committed = fm.Committed()
	res.Core.CommittedByKind = fm.CommittedByKind()
	return res, nil
}
