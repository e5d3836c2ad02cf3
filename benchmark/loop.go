package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workers is the closed loop's concurrency: two workers (or two client
// connections), one per core of the two-core host the benchmark was tuned
// on. It is fixed so runs on other hosts stay comparable.
const workers = 2

// job is one unit of closed-loop work: a simulation for the batch
// workloads, one HTTP request for serve-warm.
type job struct {
	id string
	// cycle marks cycle-tier jobs: the skip-off and stall passes of a traced
	// run repeat exactly these.
	cycle bool
	run   func(x *exec) (result, error)
}

// result is what a job returns besides its outcome.
type result struct {
	out outcome
	// latency is the time of the call that ran the job: the simulation call
	// for batch jobs, send to last byte for an HTTP request.
	latency time.Duration
	// res holds the full statistics of a batch job, for per-layer counts.
	res *sim.Result
	// baseCycles is the fault-free cycle count of a faulted job.
	baseCycles int64
	// costed and costExact record a verify job's cost.Analyze verdict.
	costed, costExact bool
}

// passState is shared by the jobs of one pass: paper-figures gives each
// pass a fresh bench.Runner, so a pass's memo sharing is the same on every
// pass.
type passState struct {
	runner *bench.Runner
}

// runMode alters how the jobs of a window run. The zero mode runs them as
// the workload defines them.
type runMode struct {
	skipOff bool      // Core.EventSkip=false
	stalls  *stallAgg // attach a fresh trace.Collector to each job and fold its attribution in
}

// apply adjusts a job's options and returns what to call once it has run.
func (m runMode) apply(o *sim.Options) (after func()) {
	if m.skipOff {
		o.Core.EventSkip = false
	}
	if m.stalls == nil {
		return func() {}
	}
	col := trace.NewCollector(0, 0)
	o.Trace = col
	return func() { m.stalls.add(col.Attribution().Totals()) }
}

// stallAgg sums the stall attribution of every job of a stall pass.
type stallAgg struct {
	mu     sync.Mutex
	totals [trace.ClassCount]int64
}

func (a *stallAgg) add(t [trace.ClassCount]int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, v := range t {
		a.totals[i] += v
	}
}

// exec is what one job execution sees.
type exec struct {
	pass   *passState
	worker int
	jobNo  int // unique within the window; spans of this execution carry it
	tr     *tracer
	mode   runMode
}

type buildFunc = func(h *mem.Hierarchy) *kernels.Instance

// build wraps a kernel build for one execution: then (if any) runs on the
// built instance, and under tracing the build, a re-lint of the built
// program and the output check each get a span under root.
func (x *exec) build(root int, b buildFunc, then func(*kernels.Instance)) buildFunc {
	return func(h *mem.Hierarchy) *kernels.Instance {
		s := x.tr.begin("kernels.build", x.jobNo, root)
		inst := b(h)
		x.tr.end(s)
		if inst.Err != nil || inst.Prog == nil {
			return inst
		}
		if then != nil {
			then(inst)
		}
		if x.tr == nil {
			return inst
		}
		s = x.tr.begin("lint.analyze", x.jobNo, root)
		inst.Relint(inst.Prog)
		x.tr.end(s)
		if check := inst.Check; check != nil {
			inst.Check = func() error {
				s := x.tr.begin("kernels.check", x.jobNo, root)
				defer x.tr.end(s)
				return check()
			}
		}
		return inst
	}
}

// runBench executes one simulation through the pass's bench.Runner.
func (x *exec) runBench(key string, v kernels.Variant, size int, opts *sim.Options, b buildFunc) (*sim.Result, time.Duration, error) {
	after := x.mode.apply(opts)
	root := x.tr.begin("sim.run", x.jobNo, -1)
	t0 := time.Now()
	res, err := x.pass.runner.Run(bench.Job{Variant: v, Size: size, Opts: opts, Key: key, Build: x.build(root, b, nil)})
	lat := time.Since(t0)
	x.tr.end(root)
	after()
	return res, lat, err
}

// record is one finished job execution of a window.
type record struct {
	job, pass, jobNo int
	start, end       time.Duration // since the window started
	r                result
	err              error
	// fresh is false for a bench.Runner memo hit: it returns the same
	// *sim.Result as the job whose simulation it shares, and only the first
	// record of a result counts toward sim_kips and the per-layer counts.
	fresh bool
}

// window is the outcome of one closed-loop run over whole passes.
type window struct {
	recs    []record
	elapsed time.Duration
	states  []*passState // one per pass
	// rssMB holds the RSS samples taken until fixedJobs jobs had finished,
	// so their median belongs to a fixed amount of work.
	rssMB []float64
}

// passOrder is the seeded job order of one pass: the same seed gives the
// same sequence on every run.
func passOrder(seed uint64, pass int, jobs []int) []int {
	rng := rand.New(rand.NewPCG(seed, uint64(pass)))
	out := make([]int, len(jobs))
	for i, p := range rng.Perm(len(jobs)) {
		out[i] = jobs[p]
	}
	return out
}

// feeder hands out jobs pass by pass in seeded order. Once the deadline has
// passed and the workload's minimum passes have been handed out, it stops at
// the next pass boundary, so a window always measures whole passes: the same
// job mix on every seed, whatever the host speed.
type feeder struct {
	w        *workload
	seed     uint64
	jobs     []int
	deadline time.Time
	onePass  bool

	mu     sync.Mutex
	order  []int
	pos    int
	next   int
	states []*passState
}

type item struct {
	job, pass, jobNo int
	state            *passState
}

func (f *feeder) take() (item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pos == len(f.order) {
		n := len(f.states)
		if n > 0 && (f.onePass || n >= f.w.minPasses && !time.Now().Before(f.deadline)) {
			return item{}, false
		}
		f.order = passOrder(f.seed, len(f.states), f.jobs)
		f.pos = 0
		st := &passState{}
		if f.w.perPassRunner {
			st.runner = bench.NewRunner(workers)
		}
		f.states = append(f.states, st)
	}
	it := item{job: f.order[f.pos], pass: len(f.states) - 1, jobNo: f.next, state: f.states[len(f.states)-1]}
	f.pos++
	f.next++
	return it, true
}

// runWindow runs jobs (indices into w.jobs) on the closed loop until at
// least seconds have passed, or for exactly one pass when onePass is set.
func runWindow(w *workload, seed uint64, jobs []int, seconds float64, onePass bool, tr *tracer, mode runMode) *window {
	f := &feeder{w: w, seed: seed, jobs: jobs, onePass: onePass}
	win := &window{}
	var mu sync.Mutex
	seen := map[*sim.Result]bool{}
	pid := w.rssPID
	if pid == 0 {
		pid = os.Getpid()
	}
	rss := startRSS(pid)
	fixedJobs := len(jobs) * max(1, w.minPasses)
	start := time.Now()
	f.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				it, ok := f.take()
				if !ok {
					return
				}
				x := &exec{pass: it.state, worker: wk, jobNo: it.jobNo, tr: tr, mode: mode}
				t0 := time.Since(start)
				r, err := w.jobs[it.job].run(x)
				rec := record{job: it.job, pass: it.pass, jobNo: it.jobNo, start: t0, end: time.Since(start), r: r, err: err}
				mu.Lock()
				rec.fresh = r.res == nil || !seen[r.res]
				if r.res != nil {
					seen[r.res] = true
				}
				win.recs = append(win.recs, rec)
				if len(win.recs) == fixedJobs {
					win.rssMB = rss.finish()
				}
				mu.Unlock()
			}
		}(wk)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	if len(win.recs) < fixedJobs {
		win.rssMB = rss.finish()
	}
	win.states = f.states
	return win
}

// rssEvery is the RSS sampling period.
const rssEvery = 20 * time.Millisecond

// rssSampler reads a process's resident set size periodically.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := readRSS(pid); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// readRSS returns a process's resident set size in MB (10^6 bytes) from
// /proc/<pid>/statm.
func readRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: short line %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}
