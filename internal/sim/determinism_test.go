package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestMSHRRetryDeterministic pins the retry order of unissued cache fills.
// With a 4-deep DRAM queue the lower levels reject fills on this cell, so
// which MSHR retries first decides the timing: the order must come from
// the simulation (allocation order), never from Go's randomized map order,
// or repeated runs in one process report different cycle counts.
func TestMSHRRetryDeterministic(t *testing.T) {
	k := kernels.ByID("H")
	var first *sim.Result
	for i := 0; i < 4; i++ {
		o := sim.DefaultOptions(kernels.UVE)
		o.Hier.DRAM.QueueDepth = 4
		r, err := sim.Run(k, kernels.UVE, 128, &o)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
			continue
		}
		if !reflect.DeepEqual(first, r) {
			t.Fatalf("run %d: %d cycles, run 0: %d cycles; results differ", i, r.Cycles, first.Cycles)
		}
	}
	if first.DRAM.QueueFullStalls == 0 {
		t.Fatal("DRAM never rejected a request: the cell no longer exercises fill retries")
	}
}
