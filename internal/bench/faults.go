package bench

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// The fault-campaign experiment (`uvebench -exp faults`): every kernel on
// the UVE machine and the SVE baseline runs a grid of seeded deterministic
// fault campaigns, and each campaign's final memory image is checked
// byte-for-byte (FNV-1a digest) against the fault-free run. Injection may
// only change timing; StateOK == false is a resilience bug. The experiment
// is addressable by id but deliberately not part of `-exp all`, whose
// output is byte-stable across releases.

// faultSeeds is the campaign grid: three seeds exercise different
// interleavings of the four injection channels.
var faultSeeds = []uint64{0x11, 0x22, 0x33}

// campaignMaxCycles converts an injection-induced livelock into a
// structured watchdog diagnostic instead of a wedged harness.
const campaignMaxCycles = 100_000_000

// FaultRow is one seeded campaign's measurement.
type FaultRow struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Variant kernels.Variant `json:"variant"`
	Size    int             `json:"size"`
	Seed    uint64          `json:"seed"`
	// BaseCycles is the fault-free run; Cycles the faulted run.
	BaseCycles int64 `json:"base_cycles"`
	Cycles     int64 `json:"cycles"`
	// Injected counts the faults that actually fired.
	Injected fault.Stats `json:"injected"`
	// StateOK reports the oracle: final memory image identical to the
	// fault-free run.
	StateOK bool   `json:"state_ok"`
	Err     string `json:"err,omitempty"`
}

// Slowdown is the timing cost of the campaign's perturbations.
func (r *FaultRow) Slowdown() float64 {
	return safeDiv(float64(r.Cycles), float64(r.BaseCycles))
}

// FaultCampaign runs the seeded grid. Options.Faults, when set, replaces
// the default plan as the campaign template (its seed is overridden per
// grid point); Options.Watchdog tightens the forward-progress bound.
func FaultCampaign(o *Options) []FaultRow {
	type group struct {
		k    *kernels.Kernel
		v    kernels.Variant
		size int
	}
	var groups []group
	var jobs []Job
	for _, k := range kernels.All {
		size := SizeFor(k, o)
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE} {
			groups = append(groups, group{k, v, size})
			base := sim.DefaultOptions(v)
			base.HashMem = true
			jobs = append(jobs, Job{Kernel: k, Variant: v, Size: size, Opts: &base})
			for _, seed := range faultSeeds {
				fo := sim.DefaultOptions(v)
				fo.HashMem = true
				plan := fault.DefaultPlan(seed)
				if o != nil && o.Faults != nil {
					plan = *o.Faults
					plan.Seed = seed
				}
				fo.Faults = &plan
				fo.MaxCycles = campaignMaxCycles
				if o != nil && o.Watchdog > 0 {
					fo.Watchdog = o.Watchdog
				}
				jobs = append(jobs, Job{Kernel: k, Variant: v, Size: size, Opts: &fo})
			}
		}
	}
	// Job errors land in the affected rows, not a panic: a watchdog trip
	// is a reportable campaign outcome.
	rs, errs := o.Runner().RunEach(jobs)

	perGroup := 1 + len(faultSeeds)
	var rows []FaultRow
	for gi, g := range groups {
		base := rs[gi*perGroup]
		for si, seed := range faultSeeds {
			ji := gi*perGroup + 1 + si
			r := rs[ji]
			row := FaultRow{
				ID: g.k.ID, Name: g.k.Name, Variant: g.v, Size: g.size, Seed: seed,
			}
			if base != nil {
				row.BaseCycles = base.Cycles
			}
			if r != nil {
				row.Cycles = r.Cycles
				row.Injected = r.Faults
				row.StateOK = base != nil && r.MemHash == base.MemHash
			} else {
				row.Err = "simulation failed"
				if errs[ji] != nil {
					row.Err = errs[ji].Error()
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatFaultCampaign renders the campaign table.
func FormatFaultCampaign(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("Fault campaigns — seeded deterministic injection, state oracle vs fault-free run\n")
	fmt.Fprintf(&b, "%-3s %-16s %-5s %6s %6s %12s %10s %9s %7s %6s %6s %6s %7s\n",
		"ID", "name", "var", "size", "seed", "base-cycles", "cycles", "slowdown",
		"nacks", "pf", "dram", "susp", "state")
	for i := range rows {
		r := &rows[i]
		state := "OK"
		if !r.StateOK {
			state = "FAIL"
		}
		if r.Err != "" {
			state = "ERR"
		}
		fmt.Fprintf(&b, "%-3s %-16s %-5s %6d %6s %12d %10d %8.3fx %7d %6d %6d %6d %7s\n",
			r.ID, r.Name, r.Variant, r.Size, fmt.Sprintf("%#x", r.Seed), r.BaseCycles, r.Cycles, r.Slowdown(),
			r.Injected.Nacks, r.Injected.PageFaults, r.Injected.DRAMSpikes, r.Injected.Suspends, state)
		if r.Err != "" {
			fmt.Fprintf(&b, "    error: %s\n", r.Err)
		}
	}
	return b.String()
}
