package main

import (
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailPercentile pins the rule that a reported percentile has at least
// ten samples beyond it, and that each workload fixes its percentile from the
// job count every window reaches.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n        int
		perMille int
		value    float64
		beyond   int
		ok       bool
	}{
		{19, 1000, 19, 0, false},
		{20, 500, 10, 10, true},
		{99, 500, 50, 49, true},
		{100, 900, 90, 10, true},
		{999, 900, 900, 99, true}, // p99 would leave 9 beyond
		{1000, 990, 990, 10, true},
		{9999, 990, 9900, 99, true},
		{100000, 990, 99000, 1000, true}, // the ladder stops at p99
	} {
		// Shuffle-independence: feed the samples in reverse.
		xs := seq(tc.n)
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		pm, ok := tailPerMille(tc.n)
		v, beyond := percentile(xs, pm)
		if pm != tc.perMille || v != tc.value || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d: got p%d‰=%v beyond %d ok=%v, want p%d‰=%v beyond %d ok=%v",
				tc.n, pm, v, beyond, ok, tc.perMille, tc.value, tc.beyond, tc.ok)
		}
		if ok && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}

	// A window of more passes keeps the workload's percentile and leaves more
	// samples beyond it.
	pf := smokePaperFigures(t, 1)
	if pm := pf.tailPerMille(); pm != 900 {
		t.Errorf("paper-figures reports p%g, want p90", float64(pm)/10)
	}
	for passes := 1; passes <= 12; passes++ {
		if _, beyond := percentile(seq(passes*len(pf.jobs)), pf.tailPerMille()); beyond < minBeyond {
			t.Errorf("paper-figures, %d passes: %d samples beyond p90", passes, beyond)
		}
	}
	sw := &workload{jobs: make([]*job, 114), minPasses: servePasses}
	if pm := sw.tailPerMille(); pm != 990 {
		t.Errorf("serve-warm reports p%g, want p99", float64(pm)/10)
	}
}

// TestQuartilesMatchPython checks quartiles against values Python's
// statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(4), 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{7, 1, 3}, 1, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", m)
	}
}

// sequence returns the first n job ids a feeder hands out.
func sequence(w *workload, seed uint64, n int) []string {
	f := &feeder{w: w, seed: seed, jobs: w.all(), deadline: time.Now().Add(time.Hour)}
	var ids []string
	for len(ids) < n {
		it, ok := f.take()
		if !ok {
			break
		}
		ids = append(ids, w.jobs[it.job].id)
	}
	return ids
}

func jobIDs(w *workload) []string {
	var ids []string
	for _, j := range w.jobs {
		ids = append(ids, j.id)
	}
	return ids
}

// smokePaperFigures sets paper-figures up at smoke sizes.
func smokePaperFigures(t *testing.T, seed uint64) *workload {
	t.Helper()
	w, err := paperFigures(&config{workload: "paper-figures", seed: seed, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSameSeedSameJobs: a seed fixes the job list and the order jobs and
// requests are sent in; another seed changes them.
func TestSameSeedSameJobs(t *testing.T) {
	pf1, pf1b, pf2 := smokePaperFigures(t, 1), smokePaperFigures(t, 1), smokePaperFigures(t, 2)
	if !reflect.DeepEqual(jobIDs(pf1), jobIDs(pf1b)) {
		t.Error("paper-figures: same seed drew different fault-plan seeds")
	}
	if reflect.DeepEqual(jobIDs(pf1), jobIDs(pf2)) {
		t.Error("paper-figures: seeds 1 and 2 drew the same fault-plan seeds")
	}
	if a, b := sequence(pf1, 7, 400), sequence(pf1b, 7, 400); !reflect.DeepEqual(a, b) {
		t.Error("paper-figures: same seed gave different job orders")
	}
	if a, b := sequence(pf1, 7, 400), sequence(pf1, 8, 400); reflect.DeepEqual(a, b) {
		t.Error("paper-figures: seeds 7 and 8 gave the same job order")
	}

	c := &config{workload: "serve-warm", seed: 3, smoke: true, build: t.TempDir()}
	if err := os.MkdirAll(c.runDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	sw, err := serveWarm(c)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.shutdown()
	if a, b := sequence(sw, 3, 300), sequence(sw, 3, 300); !reflect.DeepEqual(a, b) {
		t.Error("serve-warm: same seed gave different request sequences")
	}
	if a, b := sequence(sw, 3, 300), sequence(sw, 4, 300); reflect.DeepEqual(a, b) {
		t.Error("serve-warm: seeds 3 and 4 gave the same request sequence")
	}
}

// TestMemoHitsNotFresh: a pass of paper-figures submits the 183 cells of
// `uvebench -exp all` to one bench.Runner, which simulates 158 of them; the
// 25 memo hits share a result and are not counted as simulated work. The
// verify and fault jobs never share.
func TestMemoHitsNotFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a smoke-scale pass")
	}
	w := smokePaperFigures(t, 1)
	win := runWindow(w, 1, w.all(), 0, true, nil, runMode{})
	cells, fresh, verify, faults := 0, 0, 0, 0
	for _, r := range win.recs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		switch j := w.jobs[r.job]; {
		case !j.cycle:
			verify++
		case strings.HasPrefix(j.id, "faults/"):
			if r.fresh {
				faults++
			}
		case r.fresh:
			fresh++
			fallthrough
		default:
			cells++
		}
	}
	if cells != 183 || fresh != 158 || verify != 57 || faults != 75 {
		t.Errorf("paper-figures: %d cells, %d simulate, %d verify jobs, %d fault jobs; want 183, 158, 57 and 75",
			cells, fresh, verify, faults)
	}
	if st := win.states[0].runner.Stats(); st.Simulated != 158+75 || st.MemoHits != 25 {
		t.Errorf("runner simulated %d with %d memo hits, want %d and 25", st.Simulated, st.MemoHits, 158+75)
	}
}

const cannedTraces = `File: uvebenchmark
Type: cpu
Time: Oct 16, 2026 at 4:40pm (UTC)
Duration: 10.20s, Total samples = 1.13s (11.08%)
-----------+-------------------------------------------------------
      50ms   runtime.mallocgc
             runtime.newobject
             repro/internal/cpu.(*Core).rename (inline)
             repro/internal/cpu.(*Core).Step
             repro/internal/sim.RunBuiltContext
             main.(*exec).runBench
-----------+-------------------------------------------------------
     bytes:  4kB
      30ms   repro/internal/mem.(*Cache).lookup
             repro/internal/cpu.(*Core).Step
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   repro/internal/report.(*Document).Marshal
             main.main
-----------+-------------------------------------------------------
      10ms   main.(*tracer).begin
             main.runWindow.func1
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             net/http.(*persistConn).readLoop
-----------+-------------------------------------------------------
       1s    repro/internal/descriptor.(*Iterator).Next
             repro/internal/engine.(*Engine).Step
-----------+-------------------------------------------------------
`

// TestProfileAttribution charges canned `go tool pprof -traces` samples to
// layers: innermost repository frame, GC workers apart, the rest to misc
// or other.
func TestProfileAttribution(t *testing.T) {
	stacks, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 7 {
		t.Fatalf("parsed %d stacks, want 7", len(stacks))
	}
	if got := stacks[0].frames[2]; got != "repro/internal/cpu.(*Core).rename" {
		t.Errorf("inline marker not stripped: %q", got)
	}
	s := attribute(stacks)
	ms := 1e6
	want := map[string]float64{
		"cpu": 50 * ms, "mem": 30 * ms, "go.gc_bg": 10 * ms,
		"misc": 20 * ms, "other": 10 * ms, "descriptor": 1000 * ms,
	}
	if !reflect.DeepEqual(s.layer, want) {
		t.Errorf("layers = %v, want %v", s.layer, want)
	}
	if s.total != 1120*ms || s.malloc != 50*ms {
		t.Errorf("total %v malloc %v, want %v and %v", s.total, s.malloc, 1120*ms, 50*ms)
	}
	if _, err := parseTraces("-----------+\n  12parsecs   main.main\n"); err == nil {
		t.Error("unknown unit accepted")
	}
}

// TestDigestOrderIndependent: the digest depends on what jobs computed, not
// on the order they completed in.
func TestDigestOrderIndependent(t *testing.T) {
	w := &workload{}
	for _, id := range []string{"a", "b", "c"} {
		w.jobs = append(w.jobs, &job{id: id})
	}
	recs := []record{
		{job: 0, r: result{out: outcome{10, 5, 1}}},
		{job: 1, r: result{out: outcome{20, 6, 2}}},
		{job: 2, r: result{out: outcome{30, 7, 3}}},
		{job: 0, pass: 1, r: result{out: outcome{10, 5, 1}}},
	}
	forward := newChecker(w)
	forward.check(&window{recs: append([]record(nil), recs...)})
	var rev []record
	for i := len(recs) - 1; i >= 0; i-- {
		rev = append(rev, recs[i])
	}
	backward := newChecker(w)
	backward.check(&window{recs: rev})
	if forward.digest() != backward.digest() {
		t.Errorf("digest depends on completion order: %s vs %s", forward.digest(), backward.digest())
	}
	if forward.failed != 0 {
		t.Errorf("%d failed, want 0", forward.failed)
	}

	// A job that computes something else on a later run fails.
	bad := newChecker(w)
	recs[3].r.out.Cycles = 11
	bad.check(&window{recs: recs})
	if bad.failed != 1 {
		t.Errorf("changed outcome: %d failed, want 1", bad.failed)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's names in step.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end %v, code has %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layers, perLayerDefs) {
		t.Errorf("per_layer differs from the code's list")
	}
}

// TestSmoke runs every workload end to end at smoke scale, untraced and
// traced, and checks the result lines.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	build := t.TempDir()
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := &config{workload: wl, seed: 5, seconds: 0.5, trace: traced, smoke: true, build: build}
			if err := os.MkdirAll(c.runDir(), 0o755); err != nil {
				t.Fatal(err)
			}
			rep, err := runBenchmark(c, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d jobs failed", wl, traced, rep.failed, rep.attempted)
			}
			for _, d := range rep.defs {
				if _, ok := rep.values[d.name]; !ok && !traced {
					t.Errorf("%s: metric %s missing", wl, d.name)
				}
				if !traced && rep.values[d.name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, rep.values[d.name])
				}
			}
			if traced {
				var sum float64
				for _, d := range rep.defs {
					if strings.HasSuffix(d.name, ".host_pct") || d.name == "go.gc_bg_pct" {
						sum += rep.values[d.name]
					}
				}
				if math.Abs(sum-100) > 1e-6 {
					t.Errorf("%s: host shares sum to %v, want 100", wl, sum)
				}
			}
		}
	}
}
