package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/trace"
)

// perLayerDefs are the metrics of single layers, printed by a traced run.
// A metric that does not apply to a workload (README.md says which) reads 0.
var perLayerDefs = []metricDef{
	{"cpu.host_pct", "%"}, {"cpu.ns_per_cycle", "ns"}, {"cpu.skip_speedup", "x"},
	{"cpu.sim_cycles", "count"}, {"cpu.committed", "count"}, {"cpu.ipc", "inst/cycle"},
	{"cpu.rename_blocked_pct", "%"},
	{"cpu.stall.busy_pct", "%"}, {"cpu.stall.frontend_pct", "%"}, {"cpu.stall.rename_pct", "%"},
	{"cpu.stall.fifo_pct", "%"}, {"cpu.stall.memory_pct", "%"}, {"cpu.stall.exec_pct", "%"},
	{"cpu.stall.drain_pct", "%"},
	{"engine.host_pct", "%"}, {"engine.chunks", "count"}, {"engine.line_requests", "count"},
	{"engine.fifo_full_pct", "%"}, {"engine.regenerations", "count"},
	{"mem.host_pct", "%"}, {"mem.l1_miss_pct", "%"}, {"mem.l2_miss_pct", "%"},
	{"mem.dram_lines", "count"}, {"mem.bus_util_pct", "%"},
	{"descriptor.host_pct", "%"}, {"isa.host_pct", "%"},
	{"fault.host_pct", "%"}, {"fault.injected", "count"}, {"fault.slowdown", "x"},
	{"funcsim.host_pct", "%"}, {"funcsim.ns_per_inst", "ns"}, {"sim.sanitizer_elided_pct", "%"},
	{"kernels.build_ms", "ms"}, {"kernels.check_ms", "ms"}, {"kernels.host_pct", "%"},
	{"program.host_pct", "%"},
	{"lint.analyze_ms", "ms"}, {"lint.host_pct", "%"}, {"absint.host_pct", "%"},
	{"cost.analyze_ms", "ms"}, {"cost.host_pct", "%"}, {"cost.exact_pct", "%"},
	{"sim.run_ms", "ms"}, {"sim.host_pct", "%"},
	{"bench.simulated", "count"}, {"bench.memo_hits", "count"}, {"bench.pool_busy_pct", "%"},
	{"bench.fingerprint_ms", "ms"}, {"bench.host_pct", "%"},
	{"wire.host_pct", "%"},
	{"store.get_ms", "ms"}, {"store.hit_pct", "%"}, {"store.host_pct", "%"},
	{"serve.submit_ms", "ms"}, {"serve.http_ms", "ms"}, {"serve.jobs_retained", "count"},
	{"serve.host_pct", "%"},
	{"go.alloc_mb", "MB/pass"}, {"go.allocs_per_job", "count"}, {"go.gc_cycles", "count/pass"},
	{"go.gc_pause_ms", "ms/pass"}, {"go.malloc_pct", "%"}, {"go.gc_bg_pct", "%"},
	{"misc.host_pct", "%"}, {"other.host_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// stallGroups folds the trace package's stall classes into the columns the
// per-layer table reports.
var stallGroups = map[string]string{
	"busy": "busy", "frontend": "frontend",
	"rob": "rename", "iq": "rename", "sched": "rename", "prf": "rename", "lq": "rename", "sq": "rename", "scrob": "rename",
	"fifo-data": "fifo", "fifo-store": "fifo",
	"memory": "memory", "exec": "exec", "drain": "drain",
}

// tracedRun measures the per-layer metrics. It first runs an untraced
// window (the base for trace_overhead_pct), then the same seed and jobs
// with spans and a CPU profile, then for cycle-tier workloads one pass with
// event skipping on, one with it off, and one with a stall-attribution
// collector on every job. serve-warm traces its HTTP requests, then profiles
// an in-process replay of the same request sequence.
func tracedRun(c *config, w *workload, chk *checker, stdout io.Writer) (*report, error) {
	all := w.all()
	base := runWindow(w, c.seed, all, c.seconds, false, nil, runMode{})
	chk.check(base)

	m := map[string]float64{}
	tr := newTracer()
	tag := fmt.Sprintf("%s-seed%d", w.name, c.seed)
	profPath := filepath.Join(c.runDir(), tag+".cpu.pprof")
	var traced, prof *window
	var ms0, ms1 runtime.MemStats
	var ipChk *checker
	profiled := func(pw *workload) (*window, error) {
		p, err := startProfile(profPath)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		win := runWindow(pw, c.seed, pw.all(), c.seconds, false, tr, runMode{})
		runtime.ReadMemStats(&ms1)
		return win, p.stop()
	}
	var err error
	if w.serve == nil {
		if traced, err = profiled(w); err != nil {
			return nil, err
		}
		prof = traced
		chk.check(traced)
	} else {
		before, err := w.serve.stats()
		if err != nil {
			return nil, err
		}
		traced = runWindow(w, c.seed, all, c.seconds, false, tr, runMode{})
		chk.check(traced)
		after, err := w.serve.stats()
		if err != nil {
			return nil, err
		}
		if n := after.StoreHits - before.StoreHits + after.StoreMisses - before.StoreMisses; n > 0 {
			m["store.hit_pct"] = 100 * float64(after.StoreHits-before.StoreHits) / float64(n)
		}
		m["serve.jobs_retained"] = float64(after.Jobs)
		m["bench.simulated"] = float64(after.Runner.Simulated - before.Runner.Simulated)
		m["bench.memo_hits"] = float64(after.Runner.MemoHits - before.Runner.MemoHits)

		lw, err := w.serve.inProcess()
		if err != nil {
			return nil, err
		}
		defer lw.shutdown()
		if prof, err = profiled(lw); err != nil {
			return nil, err
		}
		ipChk = newChecker(lw)
		ipChk.check(prof)
	}
	m["trace_overhead_pct"] = 100 * (1 - throughput(traced)/throughput(base))

	spanMetrics(m, w, traced, tr.spans)
	countMetrics(m, traced)
	goMetrics(m, prof, &ms0, &ms1)

	if cyc := w.cycleJobs(); len(cyc) > 0 {
		on := runWindow(w, c.seed, cyc, 0, true, nil, runMode{})
		off := runWindow(w, c.seed, cyc, 0, true, nil, runMode{skipOff: true})
		agg := &stallAgg{}
		st := runWindow(w, c.seed, cyc, 0, true, nil, runMode{stalls: agg})
		for _, win := range []*window{on, off, st} {
			chk.check(win)
		}
		m["cpu.skip_speedup"] = sumLatency(off) / sumLatency(on)
		var total int64
		for _, v := range agg.totals {
			total += v
		}
		for cl := trace.StallClass(0); cl < trace.ClassCount; cl++ {
			if total > 0 {
				m["cpu.stall."+stallGroups[cl.String()]+"_pct"] += 100 * float64(agg.totals[cl]) / float64(total)
			}
		}
	}

	sh, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	for name, v := range sh.layer {
		key := name + ".host_pct"
		if name == "go.gc_bg" {
			key = "go.gc_bg_pct"
		}
		m[key] = 100 * v / sh.total
	}
	m["go.malloc_pct"] = 100 * sh.malloc / sh.total

	if err := writeSpans(filepath.Join(c.runDir(), tag+".spans.json"), tr.spans); err != nil {
		return nil, err
	}
	rep := &report{attempted: chk.attempted, failed: chk.failed, defs: perLayerDefs, values: m}
	if ipChk != nil {
		rep.attempted += ipChk.attempted
		rep.failed += ipChk.failed
		chk.errs = append(chk.errs, ipChk.errs...)
	}
	fmt.Fprintf(stdout, "%s seed=%d traced: %d passes untraced, %d traced; %d jobs (%d failed)\n",
		w.name, c.seed, len(base.states), len(traced.states), rep.attempted, rep.failed)
	fmt.Fprintf(stdout, "digest %s %s over %d jobs\n", w.name, chk.digest(), len(chk.expect))
	fmt.Fprintf(stdout, "profile %s, spans %s\n", profPath, filepath.Join(c.runDir(), tag+".spans.json"))
	printLayerTable(stdout, m)
	for _, e := range chk.errs {
		fmt.Fprintln(stdout, "FAIL", e)
	}
	return rep, nil
}

func throughput(win *window) float64 {
	ok := 0
	for _, r := range win.recs {
		if r.err == nil {
			ok++
		}
	}
	return float64(ok) / win.elapsed.Seconds()
}

func sumLatency(win *window) float64 {
	var s time.Duration
	for _, r := range win.recs {
		s += r.r.latency
	}
	return float64(s)
}

// spanMetrics derives the span-based metrics: median span times per layer,
// sim.run self time per simulated cycle or instruction, and pool occupancy.
func spanMetrics(m map[string]float64, w *workload, traced *window, spans []span) {
	self, children := selfTimes(spans)
	// sim.run spans carry their execution number; map it to the record.
	recs := map[int]*record{}
	for i := range traced.recs {
		recs[traced.recs[i].jobNo] = &traced.recs[i]
	}
	durs := map[string][]float64{}
	var cycleNs, cycles, funcNs, insts float64
	for i, s := range spans {
		d := s.End - s.Start
		if s.Name != "sim.run" {
			durs[s.Name] = append(durs[s.Name], ms(d))
			continue
		}
		if children[i] == 0 {
			continue // a memo hit: nothing was built or simulated
		}
		durs[s.Name] = append(durs[s.Name], ms(self[i]))
		r := recs[s.Job]
		if r == nil || r.err != nil || r.r.res == nil {
			continue
		}
		if w.jobs[r.job].cycle {
			cycleNs += float64(self[i])
			cycles += float64(r.r.res.Cycles)
		} else {
			funcNs += float64(self[i])
			insts += float64(r.r.res.Committed)
		}
	}
	for _, name := range []string{"sim.run", "kernels.build", "kernels.check", "lint.analyze", "cost.analyze",
		"bench.fingerprint", "store.get", "serve.submit", "serve.http"} {
		if len(durs[name]) > 0 {
			m[name+"_ms"] = median(durs[name])
		}
	}
	if cycles > 0 {
		m["cpu.ns_per_cycle"] = cycleNs / cycles
	}
	if insts > 0 {
		m["funcsim.ns_per_inst"] = funcNs / insts
	}
	m["bench.pool_busy_pct"] = 100 * sumLatency(traced) / (workers * float64(traced.elapsed))
}

// countMetrics sums the simulated statistics of one pass (the first of the
// traced window), over the jobs that simulated: cycle-tier counts over the
// cycle jobs, cost and sanitizer ratios over the verify jobs. Every pass
// runs the same jobs, so these counts repeat exactly on a seed.
func countMetrics(m map[string]float64, win *window) {
	var cycles, committed, renameBlocked, uveCycles, fifoFull float64
	var l1h, l1m, l2h, l2m, busWeighted, faultedCycles, baseCycles float64
	var uveFunc, elided, costed, exact float64
	for _, r := range win.recs {
		if r.pass != 0 || !r.fresh || r.err != nil || r.r.res == nil {
			continue
		}
		res := r.r.res
		if r.r.costed { // a verify job, on the functional tier
			costed++
			if r.r.costExact {
				exact++
			}
			if res.Variant == kernels.UVE {
				uveFunc++
				if res.SanitizerElided {
					elided++
				}
			}
			continue
		}
		cycles += float64(res.Cycles)
		committed += float64(res.Committed)
		renameBlocked += float64(res.Core.RenameBlocked)
		m["engine.chunks"] += float64(res.Eng.ChunksLoaded + res.Eng.ChunksStored)
		m["engine.line_requests"] += float64(res.Eng.LineRequests)
		m["engine.regenerations"] += float64(res.Eng.Regenerations)
		if res.Variant == kernels.UVE {
			uveCycles += float64(res.Cycles)
			fifoFull += float64(res.Eng.FIFOFullCycles)
		}
		l1h += float64(res.L1.Hits)
		l1m += float64(res.L1.Misses)
		l2h += float64(res.L2.Hits)
		l2m += float64(res.L2.Misses)
		m["mem.dram_lines"] += float64(res.DRAM.Reads + res.DRAM.Writes)
		busWeighted += res.BusUtil * float64(res.Cycles)
		m["fault.injected"] += float64(res.Faults.Total())
		if r.r.baseCycles > 0 {
			faultedCycles += float64(res.Cycles)
			baseCycles += float64(r.r.baseCycles)
		}
	}
	m["cpu.sim_cycles"] = cycles
	m["cpu.committed"] = committed
	ratio := func(name string, num, den, scale float64) {
		if den > 0 {
			m[name] = scale * num / den
		}
	}
	ratio("cpu.ipc", committed, cycles, 1)
	ratio("cpu.rename_blocked_pct", renameBlocked, cycles, 100)
	ratio("engine.fifo_full_pct", fifoFull, uveCycles, 100)
	ratio("mem.l1_miss_pct", l1m, l1h+l1m, 100)
	ratio("mem.l2_miss_pct", l2m, l2h+l2m, 100)
	ratio("mem.bus_util_pct", busWeighted, cycles, 100)
	ratio("fault.slowdown", faultedCycles, baseCycles, 1)
	ratio("cost.exact_pct", exact, costed, 100)
	ratio("sim.sanitizer_elided_pct", elided, uveFunc, 100)
	if len(win.states) > 0 && win.states[0].runner != nil {
		st := win.states[0].runner.Stats()
		m["bench.simulated"] = float64(st.Simulated)
		m["bench.memo_hits"] = float64(st.MemoHits)
	}
}

// goMetrics reports the Go runtime's allocation and GC work over the
// profiled window, per pass (allocations per job), so the figures do not
// depend on how many passes fit in the window.
func goMetrics(m map[string]float64, win *window, ms0, ms1 *runtime.MemStats) {
	passes := float64(len(win.states))
	if passes == 0 || len(win.recs) == 0 {
		return
	}
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / passes
	m["go.allocs_per_job"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(win.recs))
	m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / passes
	m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / passes
}

// printLayerTable prints the per-layer metrics grouped by layer, for
// reading next to the JSON line.
func printLayerTable(w io.Writer, m map[string]float64) {
	groups := map[string][]string{}
	var order []string
	for _, d := range perLayerDefs {
		g, _, _ := strings.Cut(d.name, ".")
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], fmt.Sprintf("%s=%.4g%s", strings.TrimPrefix(d.name, g+"."), m[d.name], unitSuffix(d.unit)))
	}
	for _, g := range order {
		fmt.Fprintf(w, "  %-12s %s\n", g, strings.Join(groups[g], "  "))
	}
}

func unitSuffix(u string) string {
	if u == "count" {
		return ""
	}
	return u
}
