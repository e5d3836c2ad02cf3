package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Job identifies one simulation: a kernel (or a custom instance factory),
// the machine variant, the problem size and the machine configuration.
// Every simulation is hermetic — it builds its own memory hierarchy, core
// and engine — so jobs can run on any worker in any order.
type Job struct {
	Kernel  *kernels.Kernel
	Variant kernels.Variant
	Size    int
	Opts    *sim.Options // nil = sim.DefaultOptions(Variant)

	// Ctx, when non-nil, bounds the job's execution: a done context aborts
	// the simulation with a *sim.CanceledError. Ctx is execution policy,
	// not simulation identity — it is excluded from the memo key, so jobs
	// that differ only in Ctx memo-share one execution (and that shared
	// execution runs under whichever job's context got there first; the
	// entry is evicted afterwards, so a later resubmission re-executes
	// rather than replaying the cancellation).
	Ctx context.Context

	// Build, when non-nil, replaces the Kernel's standard build with a
	// custom instance factory (e.g. the Fig 8.E unrolled GEMMs). Key must
	// then uniquely name the instance for memoization and labeling.
	Key   string
	Build func(h *mem.Hierarchy) *kernels.Instance
}

func (j *Job) id() string {
	if j.Build != nil {
		return j.Key
	}
	return j.Kernel.ID
}

// configFP is the canonical, comparable fingerprint of a machine
// configuration. engine.Config carries a *CacheLevel (Fig 11 override)
// whose pointer identity would defeat memoization, so the pointee is
// hoisted into value fields and the pointer zeroed. A trace recorder is
// part of the fingerprint by identity: traced jobs use per-job collectors,
// so they never memo-share with untraced (or other traced) runs.
// Every Options field that changes what a simulation computes or measures
// must appear here, or two different runs would memo-share; sim's
// TestBenchMemoKeyCoversOptions cross-checks the field coverage.
type configFP struct {
	core       cpu.Config
	hier       mem.HierarchyConfig
	eng        engine.Config
	forceLevel arch.CacheLevel
	hasForce   bool
	skipCheck  bool
	sanitize   sim.SanitizeMode // modes never memo-share: auto may elide tracking
	hashMem    bool
	watchdog   int64
	maxCycles  int64
	faults     fault.Plan
	hasFaults  bool
	rec        trace.Recorder
	// fidelity separates the execution tiers: a functional result carries
	// no timing, so it must never satisfy a cycle-tier lookup (and vice
	// versa — a cycle result is a valid answer but the memo stays
	// tier-exact so hit accounting and result shapes are predictable).
	fidelity sim.Fidelity
}

// memoKey canonically identifies a (kernel, variant, size, config)
// simulation. Two jobs with equal keys are the same simulation.
type memoKey struct {
	kernel  string
	variant kernels.Variant
	size    int
	cfg     configFP
}

func keyOf(j Job) memoKey {
	var o sim.Options
	if j.Opts != nil {
		o = *j.Opts
	} else {
		o = sim.DefaultOptions(j.Variant)
	}
	fp := configFP{
		core: o.Core, hier: o.Hier, eng: o.Eng,
		skipCheck: o.SkipCheck, sanitize: o.Sanitize, hashMem: o.HashMem,
		watchdog: o.Watchdog, maxCycles: o.MaxCycles, rec: o.Trace,
		fidelity: o.Fidelity,
	}
	if o.Eng.ForceLevel != nil {
		fp.hasForce = true
		fp.forceLevel = *o.Eng.ForceLevel
		fp.eng.ForceLevel = nil
	}
	if o.Faults != nil {
		fp.hasFaults = true
		fp.faults = *o.Faults
	}
	return memoKey{kernel: j.id(), variant: j.Variant, size: j.Size, cfg: fp}
}

// memoEntry is one memoized simulation. done is closed exactly once, after
// res/err are written by the single worker that executed the job.
type memoEntry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// RunnerStats reports the memoization effectiveness of a Runner.
type RunnerStats struct {
	Submitted int `json:"submitted"` // jobs submitted across all RunAll calls
	Simulated int `json:"simulated"` // unique simulations actually executed
	MemoHits  int `json:"memo_hits"` // jobs satisfied from the memo table
	// CancelEvicted counts memo entries dropped because their execution
	// was aborted by context cancellation (see Job.Ctx).
	CancelEvicted int `json:"cancel_evicted,omitempty"`
}

// Runner executes simulation jobs on a fixed-size worker pool and
// memoizes results by canonical (kernel, variant, size, config) key, so
// the default-configuration baseline shared by every sensitivity sweep is
// simulated exactly once per process-wide Runner. Results are returned in
// submission order regardless of completion order, making parallel output
// byte-identical to sequential output.
type Runner struct {
	workers int

	mu    sync.Mutex
	memo  map[memoKey]*memoEntry
	stats RunnerStats
}

// NewRunner builds a runner with the given worker count; workers <= 0
// means GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: make(map[memoKey]*memoEntry)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the memoization counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// execJob runs one simulation, converting panics (watchdog aborts, kernel
// build failures) into errors so a dying worker can never wedge the pool.
func execJob(j Job) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s/%s n=%d: simulation panic: %v", j.id(), j.Variant, j.Size, p)
		}
	}()
	ctx := j.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if j.Build != nil {
		res, err = sim.RunBuiltContext(ctx, j.Key, j.Variant, j.Size, j.Opts, j.Build)
		if err != nil {
			err = fmt.Errorf("%s/%s n=%d: %w", j.Key, j.Variant, j.Size, err)
		}
		return res, err
	}
	return sim.RunContext(ctx, j.Kernel, j.Variant, j.Size, j.Opts)
}

// RunAll executes the jobs concurrently (bounded by the worker pool),
// deduplicating against the memo table, and returns one result per job in
// submission order. Memoized results are shared — callers must treat them
// as read-only. The returned error is the first job error in submission
// order; results for the other jobs are still returned.
func (r *Runner) RunAll(jobs []Job) ([]*sim.Result, error) {
	results, errs := r.RunEach(jobs)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunEach is RunAll reporting every job's own outcome: errs[i] is the error
// of jobs[i] (nil when it succeeded), next to results[i].
func (r *Runner) RunEach(jobs []Job) (results []*sim.Result, errs []error) {
	entries := make([]*memoEntry, len(jobs))
	type work struct {
		entry *memoEntry
		job   Job
		key   memoKey
	}
	var pending []work

	r.mu.Lock()
	r.stats.Submitted += len(jobs)
	for i, j := range jobs {
		if j.Opts != nil {
			// Snapshot at submit: the memo key and the eventual execution
			// must see the same configuration even if the caller mutates
			// its Options (or a pointee like Eng.ForceLevel or Faults)
			// after RunAll returns the shared memo entry.
			c := j.Opts.Clone()
			j.Opts = &c
		}
		k := keyOf(j)
		e := r.memo[k]
		if e == nil {
			e = &memoEntry{done: make(chan struct{})}
			r.memo[k] = e
			pending = append(pending, work{e, j, k})
			r.stats.Simulated++
		} else {
			r.stats.MemoHits++
		}
		entries[i] = e
	}
	r.mu.Unlock()

	if len(pending) > 0 {
		n := r.workers
		if n > len(pending) {
			n = len(pending)
		}
		ch := make(chan work)
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for wk := range ch {
					wk.entry.res, wk.entry.err = execJob(wk.job)
					close(wk.entry.done)
					r.evictCanceled(wk.key, wk.entry)
				}
			}()
		}
		for _, wk := range pending {
			ch <- wk
		}
		close(ch)
		wg.Wait()
	}

	results = make([]*sim.Result, len(jobs))
	errs = make([]error, len(jobs))
	for i, e := range entries {
		// Entries owned by a concurrent RunAll may still be in flight.
		<-e.done
		results[i], errs[i] = e.res, e.err
	}
	return results, errs
}

// evictCanceled drops a memo entry whose execution was aborted by context
// cancellation. A canceled run says nothing about the simulation — only
// about one caller's patience — so it must not satisfy future lookups.
// Jobs already waiting on the entry still observe the cancellation error
// (they shared the aborted execution); the next submission re-executes.
func (r *Runner) evictCanceled(k memoKey, e *memoEntry) {
	var ce *sim.CanceledError
	if e.err == nil || !errors.As(e.err, &ce) {
		return
	}
	r.mu.Lock()
	if r.memo[k] == e {
		delete(r.memo, k)
		r.stats.CancelEvicted++
	}
	r.mu.Unlock()
}

// Run executes a single job through the pool and memo table.
func (r *Runner) Run(j Job) (*sim.Result, error) {
	rs, err := r.RunAll([]Job{j})
	return rs[0], err
}

// mustAll panics on a job error, matching the historical sim.MustRun
// behavior of the figure drivers.
func mustAll(rs []*sim.Result, err error) []*sim.Result {
	if err != nil {
		panic(err)
	}
	return rs
}
