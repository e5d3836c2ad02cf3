package bench

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// The functional sweep (`uvebench -fidelity functional`): every kernel on
// every variant executed by the program-order tier — output checks, committed
// counts and final-memory digests, but no cycles and no figure tables. This
// is the correctness half of `-exp all` at a fraction of the wall-clock,
// for tight edit-run loops and CI smokes; timing figures always come from
// the cycle tier.

// FuncRow is one kernel×variant cell of the functional sweep.
type FuncRow struct {
	ID        string          `json:"id"`
	Name      string          `json:"name"`
	Variant   kernels.Variant `json:"variant"`
	Size      int             `json:"size"`
	Committed uint64          `json:"committed"`
	MemHash   uint64          `json:"mem_hash"`
	Err       string          `json:"err,omitempty"`
}

// FunctionalSweep runs the full kernel×variant matrix on the functional
// tier. Output checks run inside each job; a failure lands in the row's Err.
func FunctionalSweep(o *Options) []FuncRow {
	type cell struct {
		k *kernels.Kernel
		v kernels.Variant
	}
	var cells []cell
	var jobs []Job
	for _, k := range kernels.All {
		size := SizeFor(k, o)
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			cells = append(cells, cell{k, v})
			fo := sim.DefaultOptions(v)
			fo.Fidelity = sim.Functional
			fo.HashMem = true
			jobs = append(jobs, Job{Kernel: k, Variant: v, Size: size, Opts: &fo})
		}
	}
	rs, errs := o.Runner().RunEach(jobs)

	rows := make([]FuncRow, len(cells))
	for i, c := range cells {
		rows[i] = FuncRow{ID: c.k.ID, Name: c.k.Name, Variant: c.v, Size: SizeFor(c.k, o)}
		r, err := rs[i], errs[i]
		if r != nil {
			rows[i].Committed = r.Committed
			rows[i].MemHash = r.MemHash
		}
		if err != nil {
			rows[i].Err = err.Error()
		} else if r == nil {
			rows[i].Err = "simulation failed"
		}
	}
	return rows
}

// FormatFunctionalSweep renders the sweep table.
func FormatFunctionalSweep(rows []FuncRow) string {
	var b strings.Builder
	b.WriteString("Functional sweep — program-order tier, output checks only (no timing)\n")
	fmt.Fprintf(&b, "%-3s %-16s %-5s %8s %10s %18s %6s\n",
		"ID", "name", "var", "size", "committed", "mem-hash", "check")
	for i := range rows {
		r := &rows[i]
		check := "ok"
		if r.Err != "" {
			check = "FAIL"
		}
		fmt.Fprintf(&b, "%-3s %-16s %-5s %8d %10d %#18x %6s\n",
			r.ID, r.Name, r.Variant, r.Size, r.Committed, r.MemHash, check)
		if r.Err != "" {
			fmt.Fprintf(&b, "    error: %s\n", r.Err)
		}
	}
	return b.String()
}
