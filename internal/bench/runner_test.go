package bench

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
)

// TestParallelMatchesSequential asserts the acceptance criterion that the
// parallel runner's output — cycle counts, committed instructions, derived
// stats, and the formatted figures — is byte-identical to a sequential
// run, over a sampled kernel/variant/sweep matrix. Run under -race (the
// Makefile's `race` target) this also exercises the pool for data races.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	seq := &Options{Scale: 1000, Workers: 1}
	par := &Options{Scale: 1000, Workers: 8}

	seqRows, parRows := Fig8(seq), Fig8(par)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Error("Fig8 rows differ between sequential and parallel runs")
	}
	if s, p := FormatFig8(seqRows), FormatFig8(parRows); s != p {
		t.Errorf("FormatFig8 output differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
	}

	if s, p := Fig9(seq), Fig9(par); !reflect.DeepEqual(s, p) {
		t.Error("Fig9 sweep differs between sequential and parallel runs")
	}
	if s, p := Fig8E(seq), Fig8E(par); !reflect.DeepEqual(s, p) {
		t.Error("Fig8E sweep differs between sequential and parallel runs")
	}
}

// TestRunnerDeterministicOrder checks results come back in submission
// order even when jobs complete out of order across workers.
func TestRunnerDeterministicOrder(t *testing.T) {
	k := kernels.ByID("C")
	jobs := []Job{
		{Kernel: k, Variant: kernels.NEON, Size: 64},
		{Kernel: k, Variant: kernels.SVE, Size: 16},
		{Kernel: k, Variant: kernels.UVE, Size: 32},
	}
	rs := mustAll(NewRunner(3).RunAll(jobs))
	for i, j := range jobs {
		if rs[i].Variant != j.Variant || rs[i].Size != j.Size {
			t.Errorf("result %d is %s n=%d, want %s n=%d", i, rs[i].Variant, rs[i].Size, j.Variant, j.Size)
		}
	}
}

// TestRunnerMemoizesExactlyOnce asserts each unique (kernel, variant,
// size, config) simulation executes once, including configs that differ
// only by pointer identity (the Fig 11 ForceLevel override).
func TestRunnerMemoizesExactlyOnce(t *testing.T) {
	k := kernels.ByID("C")
	r := NewRunner(4)

	lvlA, lvlB := arch.LevelL2, arch.LevelL2
	forcedA := sim.DefaultOptions(kernels.UVE)
	forcedA.Eng.ForceLevel = &lvlA
	forcedB := sim.DefaultOptions(kernels.UVE)
	forcedB.Eng.ForceLevel = &lvlB
	explicitDefault := sim.DefaultOptions(kernels.UVE)

	jobs := []Job{
		{Kernel: k, Variant: kernels.UVE, Size: 16},
		{Kernel: k, Variant: kernels.UVE, Size: 16},                         // duplicate
		{Kernel: k, Variant: kernels.UVE, Size: 16, Opts: &explicitDefault}, // nil-opts canonical form
		{Kernel: k, Variant: kernels.UVE, Size: 16, Opts: &forcedA},
		{Kernel: k, Variant: kernels.UVE, Size: 16, Opts: &forcedB}, // same level, distinct pointer
		{Kernel: k, Variant: kernels.SVE, Size: 16},                 // genuinely new
	}
	rs := mustAll(r.RunAll(jobs))
	st := r.Stats()
	if st.Submitted != 6 || st.Simulated != 3 || st.MemoHits != 3 {
		t.Errorf("stats = %+v, want 6 submitted / 3 simulated / 3 hits", st)
	}
	if rs[0] != rs[1] || rs[0] != rs[2] {
		t.Error("equal-config jobs must share the memoized result")
	}
	if rs[3] != rs[4] {
		t.Error("ForceLevel pointers to equal levels must memo-share")
	}
	if rs[0] == rs[3] {
		t.Error("forced-L2 config must not collide with the default config")
	}

	// A second submission of the same matrix is served fully from memo.
	mustAll(r.RunAll(jobs[:3]))
	if st = r.Stats(); st.Simulated != 3 {
		t.Errorf("resubmission ran %d sims, want 3 (all memoized)", st.Simulated)
	}
}

// failingInstance builds a trivially-halting instance whose output check
// always fails.
func failingInstance(h *mem.Hierarchy) *kernels.Instance {
	p := program.NewBuilder("failing").I(isa.Halt()).MustBuild()
	return &kernels.Instance{Prog: p, Check: func() error { return errors.New("synthetic mismatch") }}
}

func TestRunnerPropagatesErrors(t *testing.T) {
	r := NewRunner(2)
	_, err := r.Run(Job{
		Variant: kernels.SVE, Size: 8,
		Key:   "failing-check",
		Build: failingInstance,
	})
	if err == nil || !strings.Contains(err.Error(), "output mismatch") {
		t.Fatalf("err = %v, want output-mismatch error", err)
	}

	// A panicking build must surface as an error, not kill the pool.
	_, err = r.Run(Job{
		Variant: kernels.SVE, Size: 8,
		Key:   "panicking-build",
		Build: func(h *mem.Hierarchy) *kernels.Instance { panic("boom") },
	})
	if err == nil || !strings.Contains(err.Error(), "simulation panic") {
		t.Fatalf("err = %v, want simulation-panic error", err)
	}
}

// TestScaleExtremes covers SizeFor at scales far beyond DefaultSize: the
// intermediate size must never reach zero, and the size must stay on the
// kernel's grid.
func TestScaleExtremes(t *testing.T) {
	scales := []int{2, 7, 1 << 20, math.MaxInt / 2, math.MaxInt, -3, 0}
	for _, s := range scales {
		o := &Options{Scale: s}
		for _, k := range kernels.All {
			n := SizeFor(k, o)
			if n <= 0 {
				t.Fatalf("scale %d, kernel %s: non-positive size %d", s, k.ID, n)
			}
			if q := QuantizeSize(k, n); q != n {
				t.Errorf("scale %d, %s: size %d is off the kernel's grid (it quantizes to %d)", s, k.ID, n, q)
			}
			if s <= 1 && n != k.DefaultSize {
				t.Errorf("scale %d, %s: size %d, want DefaultSize %d", s, k.ID, n, k.DefaultSize)
			}
		}
	}
}

// TestRunnerNoCrossTierMemoSharing: the same (kernel, variant, size) matrix
// submitted at both fidelities must simulate every cell twice — a
// functional result (no timing) can never satisfy a cycle-tier lookup, and
// resubmitting either tier hits only its own entry.
func TestRunnerNoCrossTierMemoSharing(t *testing.T) {
	r := NewRunner(2)
	matrix := []struct {
		id   string
		v    kernels.Variant
		size int
	}{
		{"C", kernels.UVE, 64},
		{"C", kernels.SVE, 64},
		{"A", kernels.UVE, 64},
	}
	mkJobs := func(f sim.Fidelity) []Job {
		var jobs []Job
		for _, m := range matrix {
			o := sim.DefaultOptions(m.v)
			o.Fidelity = f
			o.HashMem = true
			jobs = append(jobs, Job{Kernel: kernels.ByID(m.id), Variant: m.v, Size: m.size, Opts: &o})
		}
		return jobs
	}

	cyc, err := r.RunAll(mkJobs(sim.Cycle))
	if err != nil {
		t.Fatal(err)
	}
	fun, err := r.RunAll(mkJobs(sim.Functional))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 2*len(matrix) || st.MemoHits != 0 {
		t.Fatalf("cross-tier memo sharing: %+v (want %d simulated, 0 hits)", st, 2*len(matrix))
	}
	for i := range matrix {
		if cyc[i].Cycles == 0 {
			t.Errorf("cell %d: cycle-tier result has no cycles", i)
		}
		if fun[i].Cycles != 0 {
			t.Errorf("cell %d: functional result reports %d cycles", i, fun[i].Cycles)
		}
		if cyc[i].MemHash != fun[i].MemHash {
			t.Errorf("cell %d: tiers disagree on final memory (%#x vs %#x)", i, cyc[i].MemHash, fun[i].MemHash)
		}
	}

	// Resubmission at each tier hits only its own memo entries.
	if _, err := r.RunAll(mkJobs(sim.Functional)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 2*len(matrix) || st.MemoHits != len(matrix) {
		t.Fatalf("functional resubmission missed its own memo: %+v", st)
	}
}
