package sim_test

// Fuzzing rides the functional tier: the fuzzer explores (kernel, variant,
// size) cells orders of magnitude faster than the detailed model allows,
// and each interesting input is cross-checked against one cycle-accurate
// run — a randomized extension of TestFunctionalDifferential's fixed grid.
// `go test` runs the seed corpus as ordinary tests; `go test -fuzz
// FuzzTierDifferential ./internal/sim` explores beyond it.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func FuzzTierDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(64))
	f.Add(uint8(2), uint8(1), uint16(96))
	f.Add(uint8(7), uint8(2), uint16(48))
	f.Add(uint8(12), uint8(0), uint16(33))
	f.Add(uint8(18), uint8(0), uint16(0)) // cubic kernel: keep the cell tiny
	f.Add(uint8(10), uint8(2), uint16(2)) // IRSmk/NEON n=18: coefficient arrays not contiguous
	f.Fuzz(func(t *testing.T, ki, vi uint8, rawSize uint16) {
		k := kernels.All[int(ki)%len(kernels.All)]
		v := []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON}[int(vi)%3]
		// Bound the cell by the kernel's paper size (and by 527) so the
		// cycle-tier cross-check stays cheap: IRSmk's 3-D grid grows as
		// the cube of its edge. Then snap it onto the kernel's structural
		// grid — builders reject off-grid sizes (GEMM's lane blocking)
		// instead of rounding.
		size := bench.QuantizeSize(k, 16+int(rawSize)%min(512, k.DefaultSize-15))
		fn := runTier(t, k, v, size, sim.Functional)
		cyc := runTier(t, k, v, size, sim.Cycle)
		if fn.MemHash != cyc.MemHash {
			t.Errorf("%s/%s n=%d: final memory diverged (functional %#x vs cycle %#x)",
				k.ID, v, size, fn.MemHash, cyc.MemHash)
		}
		if fn.Committed != cyc.Committed {
			t.Errorf("%s/%s n=%d: committed counts diverged (functional %d vs cycle %d)",
				k.ID, v, size, fn.Committed, cyc.Committed)
		}
		if got, want := collisionPairs(fn), collisionPairs(cyc); got != want {
			t.Errorf("%s/%s n=%d: collision pairs diverged (functional %q vs cycle %q)",
				k.ID, v, size, got, want)
		}
	})
}
