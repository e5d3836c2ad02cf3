package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
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

// options returns the job's configuration without copying its pointees.
func (j *Job) options() sim.Options {
	if j.Opts != nil {
		return *j.Opts
	}
	return sim.DefaultOptions(j.Variant)
}

// configHash is the canonical hash of a job's variant, size and every
// sim.Options field, so an Options field added later separates both the
// memo key and the store fingerprint without an edit here. The trace
// recorder enters only as whether one is attached: a recorder is a sink,
// and a pointer means nothing across processes. Options must stay plain
// data (wire.HashConfig refuses funcs, channels and non-nil interfaces);
// a field that is not is a programming error, and configHash panics.
func configHash(v kernels.Variant, size int, o sim.Options) wire.Hash {
	traced := o.Trace != nil
	o.Trace = nil
	h, err := wire.HashConfig("bench.job", struct {
		Variant string
		Size    int
		Opts    sim.Options
		Traced  bool
	}{v.String(), size, o, traced})
	if err != nil {
		panic(fmt.Sprintf("bench: job configuration is not hashable: %v", err))
	}
	return h
}

// memoKey identifies a simulation within one process: the kernel (or Key),
// the configuration hash, which covers variant and size, and the trace
// recorder by identity. Traced jobs use per-job collectors, so they never
// memo-share with untraced (or other traced) runs.
type memoKey struct {
	kernel string
	cfg    wire.Hash
	rec    trace.Recorder
}

func keyOf(j Job) memoKey {
	o := j.options()
	return memoKey{kernel: j.id(), cfg: configHash(j.Variant, j.Size, o), rec: o.Trace}
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

// Exec runs one simulation under ctx, whose end aborts it with a
// *sim.CanceledError. It converts panics (kernel build failures, modeling
// bugs) into errors so a dying worker can never wedge a pool.
func Exec(ctx context.Context, j Job) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s/%s n=%d: simulation panic: %v", j.id(), j.Variant, j.Size, p)
		}
	}()
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
	}
	var pending []work

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
		r.mu.Lock()
		r.stats.Submitted++
		e := r.memo[k]
		if e == nil {
			e = &memoEntry{done: make(chan struct{})}
			r.memo[k] = e
			pending = append(pending, work{e, j})
			r.stats.Simulated++
		} else {
			r.stats.MemoHits++
		}
		r.mu.Unlock()
		entries[i] = e
	}

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
					wk.entry.res, wk.entry.err = Exec(context.Background(), wk.job)
					close(wk.entry.done)
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
