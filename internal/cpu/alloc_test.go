package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// TestStepDoesNotAllocate: once warm, the cycle loop of a baseline core
// recycles its ROB entries and keeps its queues in fixed backing arrays, so
// a steady scalar loop allocates nothing per cycle.
func TestStepDoesNotAllocate(t *testing.T) {
	p := program.NewBuilder("spin").
		I(isa.Li(isa.X(1), 0)).
		I(isa.Li(isa.X(2), 1)).
		I(isa.Li(isa.X(3), 1<<40)). // bound: never reached
		Label("loop").
		I(isa.Add(isa.X(1), isa.X(1), isa.X(2))).
		I(isa.AddI(isa.X(2), isa.X(2), 1)).
		I(isa.Blt(isa.X(2), isa.X(3), "loop")).
		I(isa.Halt()).
		MustBuild()
	m := newMachine(t, p, false)
	for i := 0; i < 5000; i++ {
		m.core.Step()
	}
	before := m.core.Stats.Committed
	if allocs := testing.AllocsPerRun(2000, m.core.Step); allocs != 0 {
		t.Fatalf("Core.Step allocates %.2f objects per cycle, want 0", allocs)
	}
	if m.core.Stats.Committed == before {
		t.Fatal("no instruction committed while measuring")
	}
}
