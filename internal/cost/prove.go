package cost

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/isa"
	"repro/internal/program"
)

// tightenBailed replaces the unbounded upper ends of a bailed estimate's
// committed counts with bounds from the abstract interpreter: when every
// reachable instruction has a finite per-pc execution bound (loop trip
// counts proved from stream descriptors, counted-branch bounds, induction
// clamps — see internal/absint), the sum of those bounds, plus the implicit
// halt when control can leave the program, caps the total the concrete walk
// could not finish. The low ends (the exactly resolved prefix) are
// untouched, so the interval still contains the truth; a kind the prefix
// never reached gets a [0, bound] entry.
func tightenBailed(est *Estimate, p *program.Program, params Params) {
	r := absint.Analyze(p, absint.Options{Entry: params.IntArgs, VecBytes: params.Core.VecBytes})
	var byKind [isa.KindCount]uint64
	total, exits := uint64(0), false
	for pc := 0; pc < p.Len(); pc++ {
		if !r.Reachable(pc) {
			continue
		}
		n, ok := r.MaxExec(pc)
		if !ok {
			return // one instruction unbounded: nothing sound to report
		}
		if total+n < total {
			return // bound overflows; keep Unbounded
		}
		total += n
		byKind[p.Insts[pc].Op.Kind()] += n
		exits = exits || leavesProgram(p, pc)
	}
	if exits {
		// A pc outside the program executes the implicit halt, once.
		if total+1 < total {
			return
		}
		total++
		byKind[isa.KindNop]++
	}
	if total < est.Committed.Lo {
		// The resolved prefix already exceeds the proved bound — impossible
		// unless one analysis is wrong; surface nothing rather than a lie.
		return
	}
	est.Committed.Hi = total
	for k := isa.Kind(0); k < isa.KindCount; k++ {
		q, ok := est.ByKind[k.String()]
		if !ok {
			if byKind[k] == 0 {
				continue
			}
			q = Interval(0, Unbounded)
		}
		if q.Hi == Unbounded && byKind[k] >= q.Lo {
			q.Hi = byKind[k]
			est.ByKind[k.String()] = q
		}
	}
	est.Diags = append(est.Diags, fmt.Sprintf(
		"committed upper bound %d proved by value-range loop analysis (walk bailed before finishing)", total))
}

// leavesProgram reports whether the instruction at pc can pass control to a
// pc outside the program.
func leavesProgram(p *program.Program, pc int) bool {
	in := &p.Insts[pc]
	outside := func(t int) bool { return t < 0 || t >= p.Len() }
	switch {
	case in.Op == isa.OpHalt:
		return false
	case in.Op == isa.OpJ:
		return outside(in.Target)
	case in.Op.IsConditionalBranch():
		return outside(in.Target) || outside(pc+1)
	}
	return outside(pc + 1)
}
