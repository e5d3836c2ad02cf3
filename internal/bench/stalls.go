package bench

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StallRow is one kernel's complete cycle attribution on one machine
// (`uvebench -stalls`): every cycle up to halt lands in exactly one class,
// so Attributed always equals Cycles (test-enforced across the 19-kernel
// sweep — the "conservative-complete" property). Drain counts the post-halt
// store-drain steps separately; they are outside Result.Cycles.
type StallRow struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Variant kernels.Variant `json:"variant"`
	Size    int             `json:"size"`

	Cycles     int64            `json:"cycles"`
	Attributed int64            `json:"attributed"` // sum of Breakdown == Cycles
	Drain      int64            `json:"drain"`
	Breakdown  map[string]int64 `json:"breakdown"` // class name → cycles
}

// stallVariants are the machines the stall breakdown compares (Fig 8.C
// contrasts UVE's rename behavior with SVE's).
var stallVariants = []kernels.Variant{kernels.UVE, kernels.SVE}

// Stalls runs every kernel on the UVE and SVE machines with an
// attribution-only trace collector attached and folds each run's per-cycle
// classification into a StallRow. Each job gets its own collector, so these
// runs never memo-share with untraced experiments (or each other).
func Stalls(o *Options) []StallRow {
	type traced struct {
		job Job
		col *trace.Collector
	}
	var ts []traced
	for _, k := range kernels.All {
		size := SizeFor(k, o)
		for _, v := range stallVariants {
			col := trace.NewCollector(0, 0) // attribution only, single interval
			opts := sim.DefaultOptions(v)
			opts.Trace = col
			ts = append(ts, traced{Job{Kernel: k, Variant: v, Size: size, Opts: &opts}, col})
		}
	}
	jobs := make([]Job, len(ts))
	for i, t := range ts {
		jobs[i] = t.job
	}
	results := mustAll(o.Runner().RunAll(jobs))

	var rows []StallRow
	for i, t := range ts {
		res := results[i]
		att := t.col.Attribution()
		breakdown, drain := att.Breakdown()
		row := StallRow{
			ID: t.job.Kernel.ID, Name: t.job.Kernel.Name,
			Variant: t.job.Variant, Size: t.job.Size,
			Cycles:     res.Cycles,
			Attributed: att.AttributedExcludingDrain(),
			Drain:      drain,
			Breakdown:  breakdown,
		}
		rows = append(rows, row)
		if o != nil && o.Verbose {
			fmt.Printf("  %s/%s n=%d: %d cycles attributed\n",
				t.job.Kernel.Name, t.job.Variant, t.job.Size, row.Attributed)
		}
	}
	return rows
}

// FormatStalls renders the per-kernel stall breakdown as a percentage
// table, one column per class that appears anywhere in the rows.
func FormatStalls(rows []StallRow) string {
	present := map[string]bool{}
	for _, r := range rows {
		for cl := range r.Breakdown {
			present[cl] = true
		}
	}
	// Columns in canonical class order, restricted to classes that occur.
	var cols []string
	for cl := trace.StallClass(0); cl < trace.ClassCount; cl++ {
		if present[cl.String()] {
			cols = append(cols, cl.String())
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Stall attribution — %% of cycles per class (sum = 100%%)\n")
	fmt.Fprintf(&b, "%-2s %-15s %-4s %9s", "ID", "kernel", "mach", "cycles")
	for _, cl := range cols {
		fmt.Fprintf(&b, " %9s", cl)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-2s %-15s %-4s %9d", r.ID, r.Name, r.Variant, r.Cycles)
		for _, cl := range cols {
			pct := 0.0
			if r.Cycles > 0 {
				pct = 100 * float64(r.Breakdown[cl]) / float64(r.Cycles)
			}
			fmt.Fprintf(&b, " %8.1f%%", pct)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\n(read against Fig 8.C: UVE converts rename-stage structural stalls into\nfifo-data pacing of a saturated backend; drain cycles fall outside the\ncycle count and are omitted)\n")
	return b.String()
}
