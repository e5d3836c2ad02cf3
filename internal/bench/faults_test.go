package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestRunnerSnapshotsOptionsAtSubmit: mutating a caller-owned plan after
// RunAll must neither corrupt the memoized result nor let a re-submission
// with the old value miss the memo.
func TestRunnerSnapshotsOptionsAtSubmit(t *testing.T) {
	k := kernels.ByID("C")
	r := NewRunner(2)
	plan := fault.DefaultPlan(1)
	o := sim.DefaultOptions(kernels.UVE)
	o.Faults = &plan
	o.HashMem = true

	first, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 2 // caller mutates the shared pointee after submission

	fresh := fault.DefaultPlan(1)
	o2 := sim.DefaultOptions(kernels.UVE)
	o2.Faults = &fresh
	o2.HashMem = true
	second, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o2})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 1 || st.MemoHits != 1 {
		t.Fatalf("seed-1 resubmission missed the memo: %+v", st)
	}
	if first.Cycles != second.Cycles || first.MemHash != second.MemHash {
		t.Fatal("memoized result changed under caller mutation")
	}

	// The mutated plan is a different simulation.
	third, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 2 {
		t.Fatalf("seed-2 plan memo-shared with seed-1: %+v", st)
	}
	if third.MemHash != first.MemHash {
		t.Fatal("fault seeds changed architectural state")
	}
}

// TestFaultCampaignSmall runs the campaign grid at tiny sizes: every row
// must pass the state oracle, and the rendering must be deterministic
// across independent Options (the check.sh fault-smoke gate relies on it).
func TestFaultCampaignSmall(t *testing.T) {
	rows := FaultCampaign(&Options{Scale: 1000})
	if len(rows) != len(kernels.All)*2*len(faultSeeds) {
		t.Fatalf("campaign produced %d rows", len(rows))
	}
	var injected uint64
	for i := range rows {
		r := &rows[i]
		if r.Err != "" {
			t.Errorf("%s/%s seed=%#x: %s", r.ID, r.Variant, r.Seed, r.Err)
		} else if !r.StateOK {
			t.Errorf("%s/%s seed=%#x: state oracle failed", r.ID, r.Variant, r.Seed)
		}
		injected += r.Injected.Total()
	}
	if injected == 0 {
		t.Error("campaign injected nothing")
	}

	again := FormatFaultCampaign(FaultCampaign(&Options{Scale: 1000}))
	if got := FormatFaultCampaign(rows); got != again {
		t.Error("campaign output not deterministic across runs")
	}
	if !strings.Contains(again, "state") {
		t.Error("campaign table missing header")
	}
}

// TestFaultCampaignRowErrors: under a forward-progress bound too tight for
// any faulted run, every faulted row fails, and each row must carry its own
// job's diagnostic rather than the first failing job's.
func TestFaultCampaignRowErrors(t *testing.T) {
	rows := FaultCampaign(&Options{Scale: 1000, Watchdog: 5})
	failed := map[string]bool{}
	for i := range rows {
		r := &rows[i]
		if r.Err == "" {
			continue
		}
		failed[r.ID] = true
		if own := fmt.Sprintf("%s/%s n=%d: %s/%s: ", r.Name, r.Variant, r.Size, r.ID, r.Variant); !strings.HasPrefix(r.Err, own) {
			t.Errorf("%s/%s seed=%#x carries another job's error: %s", r.ID, r.Variant, r.Seed, r.Err)
		}
	}
	if len(failed) < 2 {
		t.Fatalf("watchdog tripped in %d kernels, want at least 2", len(failed))
	}
}
