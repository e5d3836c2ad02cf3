package funcsim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// countedLoop builds a scalar loop of n iterations (two instructions each).
func countedLoop(t *testing.T, n int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("counted-loop")
	b.I(isa.Li(isa.X(1), 0))
	b.I(isa.Li(isa.X(2), n))
	b.Label("loop")
	b.I(isa.AddI(isa.X(1), isa.X(1), 1))
	b.I(isa.Blt(isa.X(1), isa.X(2), "loop"))
	b.I(isa.Halt())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunAllocsIndependentOfLength: interpreting an instruction allocates
// nothing, so a 100,000-iteration loop allocates no more than a
// 1,000-iteration one.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int64) float64 {
		p := countedLoop(t, n)
		mm := mem.NewMemory()
		return testing.AllocsPerRun(3, func() {
			m := New(Config{VecBytes: 64}, p, mm)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got := m.IntReg(1); got != uint64(n) {
				t.Fatalf("x1 = %d after the loop, want %d", got, n)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if large > small {
		t.Errorf("a 100,000-iteration loop allocates %.0f times per run, a 1,000-iteration one %.0f", large, small)
	}
}
