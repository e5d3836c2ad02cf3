package uve_test

import (
	"errors"
	"strings"
	"testing"

	uve "repro"
)

// The tests below exercise the functional options on NewMachine — the
// public surface for sanitizing, tracing, fault injection and watchdog
// bounds — without importing any internal package.

// saxpyMachine builds a fresh UVE machine (with the given options), the
// saxpy program and its inputs. The fills are deterministic, so two
// machines built by this helper run on identical data.
func saxpyMachine(n int, opts ...uve.Option) (*uve.Machine, *uve.Program, *uve.F32Array) {
	m := uve.NewMachine(uve.DefaultConfig(), opts...)
	x := m.Float32s(n)
	y := m.Float32s(n)
	x.Fill(func(i int) float64 { return float64(i) })
	y.Fill(func(i int) float64 { return float64(2 * i) })

	b := uve.NewProgram("saxpy")
	b.ConfigStream(0, uve.NewLoadStream(x.Base, uve.W4).Linear(int64(n), 1).MustBuild())
	b.ConfigStream(1, uve.NewLoadStream(y.Base, uve.W4).Linear(int64(n), 1).MustBuild())
	b.ConfigStream(2, uve.NewStoreStream(y.Base, uve.W4).Linear(int64(n), 1).MustBuild())
	b.I(uve.VDup(uve.W4, uve.V(3), uve.F(1)))
	b.Label("loop")
	b.I(uve.VFMul(uve.W4, uve.V(4), uve.V(3), uve.V(0), uve.None))
	b.I(uve.VFAdd(uve.W4, uve.V(2), uve.V(4), uve.V(1), uve.None))
	b.I(uve.BranchStreamNotEnd(0, "loop"))
	b.I(uve.Halt())
	return m, b.MustBuild(), y
}

// TestWithFaultsPreservesOutput is the public-API face of the resilience
// oracle: a seeded fault campaign perturbs timing, injects real adversity,
// and still produces byte-for-byte the output of the fault-free run.
func TestWithFaultsPreservesOutput(t *testing.T) {
	const n, a = 4096, 2.5

	clean, cleanProg, cleanY := saxpyMachine(n)
	cleanRes, err := clean.Run(cleanProg, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Faults.Total() != 0 {
		t.Fatalf("fault-free run reported injections: %v", cleanRes.Faults)
	}

	plan := uve.DefaultFaultPlan(7)
	faulted, faultedProg, faultedY := saxpyMachine(n, uve.WithFaults(plan))
	faultedRes, err := faulted.Run(faultedProg, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if faultedRes.Faults.Total() == 0 {
		t.Fatalf("plan %v injected nothing at n=%d", plan, n)
	}

	want := cleanY.Slice()
	got := faultedY.Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v under faults, want %v", i, got[i], want[i])
		}
	}

	// Same plan ⇒ the same run, cycle for cycle.
	again, againProg, _ := saxpyMachine(n, uve.WithFaults(plan))
	againRes, err := again.Run(againProg, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if againRes.Cycles != faultedRes.Cycles || againRes.Faults != faultedRes.Faults {
		t.Fatalf("replay diverged: %d cycles %v, want %d cycles %v",
			againRes.Cycles, againRes.Faults, faultedRes.Cycles, faultedRes.Faults)
	}
}

// TestWithMaxCyclesWatchdog bounds a run far below its natural length and
// expects the structured diagnostic, not a hang and not a bare string.
func TestWithMaxCyclesWatchdog(t *testing.T) {
	const n = 1 << 14
	m, p, _ := saxpyMachine(n, uve.WithMaxCycles(500))
	_, err := m.Run(p, uve.FloatArg(1, uve.W4, 2.5))
	if err == nil {
		t.Fatal("bounded run succeeded")
	}
	var w *uve.WatchdogError
	if !errors.As(err, &w) {
		t.Fatalf("error is %T, want *uve.WatchdogError: %v", err, err)
	}
	if w.Cycle < 500 {
		t.Fatalf("tripped at cycle %d, bound was 500", w.Cycle)
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "stream table") {
		t.Fatalf("diagnostic lacks watchdog/stream-table detail: %v", err)
	}
}

// TestWithWatchdogHealthyRun checks a generous forward-progress bound does
// not perturb a healthy run.
func TestWithWatchdogHealthyRun(t *testing.T) {
	const n = 1024
	base, baseProg, _ := saxpyMachine(n)
	baseRes, err := base.Run(baseProg, uve.FloatArg(1, uve.W4, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	m, p, _ := saxpyMachine(n, uve.WithWatchdog(1_000_000), uve.WithMaxCycles(100_000_000))
	res, err := m.Run(p, uve.FloatArg(1, uve.W4, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != baseRes.Cycles {
		t.Fatalf("watchdog changed timing: %d cycles, want %d", res.Cycles, baseRes.Cycles)
	}
}

// TestWithTraceAndSanitize runs traced + sanitized and checks the collector
// saw the run, the sanitizer stayed quiet on a disjoint kernel, and timing
// matched the plain run.
func TestWithTraceAndSanitize(t *testing.T) {
	const n = 1024
	base, baseProg, _ := saxpyMachine(n)
	baseRes, err := base.Run(baseProg, uve.FloatArg(1, uve.W4, 2.5))
	if err != nil {
		t.Fatal(err)
	}

	col := uve.NewTraceCollector(1<<12, 1000)
	m, p, y := saxpyMachine(n, uve.WithTrace(col), uve.WithSanitize(uve.SanitizeOn))
	res, err := m.Run(p, uve.FloatArg(1, uve.W4, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != baseRes.Cycles {
		t.Fatalf("tracing changed timing: %d cycles, want %d", res.Cycles, baseRes.Cycles)
	}
	if len(col.Events()) == 0 {
		t.Fatal("collector saw no events")
	}
	if got := col.Attribution().AttributedExcludingDrain(); got != res.Cycles {
		t.Fatalf("attributed %d cycles, run took %d", got, res.Cycles)
	}
	// saxpy's in-place y update is lockstep load/store over the same array:
	// the only tolerated overlap is stream 1 (load y) vs 2 (store y).
	for _, c := range res.Collisions {
		a, b := c.StreamA, c.StreamB
		if a > b {
			a, b = b, a
		}
		if a != 1 || b != 2 {
			t.Errorf("unexpected sanitizer collision: %v", c)
		}
	}
	if y.At(3) != float64(float32(2.5)*3+6) {
		t.Fatalf("y[3] = %v", y.At(3))
	}
}

// TestWithFidelityFunctional: the fast tier computes exactly what the
// detailed machine computes — identical output bytes and committed counts —
// while reporting no cycles, and rejects the timing-only options.
func TestWithFidelityFunctional(t *testing.T) {
	const n, a = 4096, 1.5

	cyc, cycProg, cycY := saxpyMachine(n)
	cycRes, err := cyc.Run(cycProg, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}

	fn, fnProg, fnY := saxpyMachine(n, uve.WithFidelity(uve.Functional))
	fnRes, err := fn.Run(fnProg, uve.FloatArg(1, uve.W4, a))
	if err != nil {
		t.Fatal(err)
	}
	if fnRes.Cycles != 0 {
		t.Fatalf("functional run reported %d cycles", fnRes.Cycles)
	}
	if cycRes.Cycles == 0 {
		t.Fatal("cycle run reported no cycles")
	}
	if fnRes.Committed != cycRes.Committed {
		t.Fatalf("committed diverged: functional %d vs cycle %d", fnRes.Committed, cycRes.Committed)
	}
	for i := 0; i < n; i++ {
		if got, want := fnY.At(i), cycY.At(i); got != want {
			t.Fatalf("y[%d] = %v on the functional tier, %v on the cycle tier", i, got, want)
		}
	}

	// Timing-only options are configuration errors, not silent no-ops.
	tm, tmProg, _ := saxpyMachine(n, uve.WithFidelity(uve.Functional), uve.WithTrace(uve.NewTraceCollector(64, 0)))
	if _, err := tm.Run(tmProg); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("functional+trace error = %v, want trace conflict", err)
	}
	fm, fmProg, _ := saxpyMachine(n, uve.WithFidelity(uve.Functional), uve.WithFaults(uve.DefaultFaultPlan(1)))
	if _, err := fm.Run(fmProg); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("functional+faults error = %v, want faults conflict", err)
	}
}

// TestSanitizeAutoFloatArg: a program that reads an FP argument register
// certifies exactly as the same streams built as a kernel do. z = a·x + y
// over three disjoint arrays has no overlapping stream pair, so
// SanitizeAuto must elide the tracker on both tiers — which requires the
// verifier to know f1 is defined at entry.
func TestSanitizeAutoFloatArg(t *testing.T) {
	const n, a = 1024, 2.5
	for _, tier := range []uve.Fidelity{uve.Cycle, uve.Functional} {
		m := uve.NewMachine(uve.DefaultConfig(), uve.WithSanitize(uve.SanitizeAuto), uve.WithFidelity(tier))
		x, y, z := m.Float32s(n), m.Float32s(n), m.Float32s(n)
		x.Fill(func(i int) float64 { return float64(i) })
		y.Fill(func(i int) float64 { return float64(3 * i) })

		b := uve.NewProgram("axpy3")
		b.ConfigStream(0, uve.NewLoadStream(x.Base, uve.W4).Linear(n, 1).MustBuild())
		b.ConfigStream(1, uve.NewLoadStream(y.Base, uve.W4).Linear(n, 1).MustBuild())
		b.ConfigStream(2, uve.NewStoreStream(z.Base, uve.W4).Linear(n, 1).MustBuild())
		b.I(uve.VDup(uve.W4, uve.V(3), uve.F(1)))
		b.Label("loop")
		b.I(uve.VFMul(uve.W4, uve.V(4), uve.V(3), uve.V(0), uve.None))
		b.I(uve.VFAdd(uve.W4, uve.V(2), uve.V(4), uve.V(1), uve.None))
		b.I(uve.BranchStreamNotEnd(0, "loop"))
		b.I(uve.Halt())

		res, err := m.Run(b.MustBuild(), uve.FloatArg(1, uve.W4, a))
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		if !res.SanitizerElided {
			t.Errorf("tier %v: SanitizeAuto did not elide the tracker for three disjoint streams", tier)
		}
		if len(res.Collisions) != 0 {
			t.Errorf("tier %v: collisions %v", tier, res.Collisions)
		}
		if got, want := z.At(7), float64(float32(a*7+21)); got != want {
			t.Errorf("tier %v: z[7] = %v, want %v", tier, got, want)
		}
	}
}

// TestMalformedProgramErrors: a program the Machine runs unverified — here
// a stream configuration missing its start part, then a read of the stream
// — fails with an error on both tiers instead of panicking out of Run.
func TestMalformedProgramErrors(t *testing.T) {
	for _, tier := range []uve.Fidelity{uve.Cycle, uve.Functional} {
		m := uve.NewMachine(uve.DefaultConfig(), uve.WithFidelity(tier))
		x := m.Float32s(64)
		d := uve.NewLoadStream(x.Base, uve.W4).Linear(8, 1).Linear(8, 8).MustBuild()
		b := uve.NewProgram("headless")
		b.I(uve.ConfigStream(0, d)[1:]...)
		b.I(uve.VFAdd(uve.W4, uve.V(1), uve.V(0), uve.V(0), uve.None))
		b.I(uve.Halt())
		p, err := b.Build()
		if err != nil {
			t.Fatalf("tier %v: build: %v", tier, err)
		}
		res, err := m.Run(p)
		if err == nil {
			t.Fatalf("tier %v: malformed program ran to completion: %+v", tier, res)
		}
		t.Logf("tier %v: %v", tier, err)
		if !strings.HasPrefix(err.Error(), "uve: ") || !strings.Contains(err.Error(), "u0") {
			t.Errorf("tier %v: error %q lacks the uve prefix or the stream", tier, err)
		}
	}
}
