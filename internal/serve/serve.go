// Package serve implements uveserve: a content-addressed simulation
// service. Clients submit (kernel, variant, size, config) jobs over
// HTTP/JSON; the server fingerprints each job (bench.FingerprintJob — the
// SHA-256 of the built program's canonical wire encoding plus the
// canonical config hash, memoized per spec), consults the persistent
// result store, and only simulates what the store has never seen.
// Completed payloads are versioned report.Documents whose bytes are a pure
// function of the job's content — no job IDs, no timestamps — so N clients
// submitting the same matrix receive byte-identical reports, across
// workers, processes and daemon restarts.
//
// Execution is a bounded worker pool over bench.Exec, below two tiers that
// answer repeat jobs: the store and an in-process singleflight. It adds
// per-client token-bucket rate limits, per-job timeouts and
// cancellation via uve-style contexts, streamed NDJSON progress for
// traced jobs, and graceful drain: in-flight jobs finish, queued and new
// jobs are rejected with a retriable status.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config sizes the server.
type Config struct {
	// Store persists completed payloads; required.
	Store *store.Store
	// Workers bounds concurrent simulations (<= 0: 2).
	Workers int
	// QueueLen bounds the submitted-but-not-running backlog (<= 0: 64).
	// A full queue rejects submissions with a retriable status.
	QueueLen int
	// JobTimeout bounds each simulation (0 = unbounded). Individual jobs
	// may request a tighter bound via JobSpec.TimeoutMS.
	JobTimeout time.Duration
	// Rate and Burst configure the per-client token bucket (requests/sec
	// and bucket depth). Rate 0 with a positive Burst is a fixed
	// non-refilling allowance; both <= 0 disables limiting.
	Rate  float64
	Burst float64
}

// JobSpec is the client-facing description of one simulation.
type JobSpec struct {
	Kernel   string `json:"kernel"`             // kernel ID or name
	Variant  string `json:"variant"`            // uve, sve, neon
	Size     int    `json:"size,omitempty"`     // 0 = kernel default
	Fidelity string `json:"fidelity,omitempty"` // cycle (default) or functional
	Sanitize string `json:"sanitize,omitempty"` // off (default), on, auto
	// Trace runs the job with a stall-attribution collector: the payload
	// gains the per-class cycle breakdown and the job's progress can be
	// streamed. Traced and untraced runs are distinct store entries.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS bounds this job's execution (capped by the server's
	// JobTimeout when both are set).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
	// StateRejected marks jobs refused before execution (drain, full
	// queue); always retriable.
	StateRejected JobState = "rejected"
)

// Stats is the /v1/stats payload.
type Stats struct {
	Store store.Stats `json:"store"`
	// Runner counts the simulations the server executed, as both
	// submitted and simulated. MemoHits stays 0: the singleflight and the
	// store answer every repeat job, and the store section counts those.
	Runner bench.RunnerStats `json:"runner"`
	// StoreHits/StoreMisses duplicate the store section at the top level —
	// the serve-smoke greps for these exact names.
	StoreHits   int  `json:"store_hits"`
	StoreMisses int  `json:"store_misses"`
	Jobs        int  `json:"jobs"`
	Draining    bool `json:"draining"`
	RateLimited int  `json:"rate_limited"`
	// FingerprintBuilds counts the bench.FingerprintJob calls prepare made:
	// one per spec the fingerprint memo did not hold.
	FingerprintBuilds int `json:"fingerprint_builds"`
}

// execution is what a job resolves to: a queued, running or finished
// simulation, which jobs with equal fingerprints share (the singleflight),
// or an answer settled at submission (store hit, store error, refusal).
// settle writes state, payload and errMsg, then closes done.
type execution struct {
	key      wire.Hash
	done     chan struct{}
	run      func() // set before enqueue; invoked by one worker
	running  atomic.Bool
	progress *progress // non-nil for traced jobs
	cancel   context.CancelFunc

	state     JobState
	fromStore bool   // Store.Get answered it
	payload   []byte // marshaled report.Document; nil unless done
	errMsg    string
}

func (e *execution) settle(state JobState, payload []byte, errMsg string) {
	e.state, e.payload, e.errMsg = state, payload, errMsg
	close(e.done)
}

// settled is an execution settled at submission. The only one settled
// done is a store hit.
func settled(state JobState, payload []byte, errMsg string) *execution {
	e := &execution{done: make(chan struct{}), cancel: func() {}, fromStore: state == StateDone}
	e.settle(state, payload, errMsg)
	return e
}

func (e *execution) isSettled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// status snapshots the job id that resolved to e.
func (e *execution) status(id string) JobStatus {
	switch {
	case e.isSettled():
		return JobStatus{ID: id, State: e.state, FromStore: e.fromStore, Error: e.errMsg,
			Retriable: e.state == StateRejected, Payload: e.payload}
	case e.running.Load():
		return JobStatus{ID: id, State: StateRunning}
	default:
		return JobStatus{ID: id, State: StateQueued}
	}
}

// keepJobs is how many of the newest job IDs stay answerable. Every
// keepJobs submissions, register evicts the settled jobs older than that,
// so the table holds at most 2*keepJobs settled jobs at a constant
// average cost per submission. An unsettled job is never evicted.
const keepJobs = 16384

// maxFingerprints bounds the spec → fingerprint memo. A full memo is
// cleared, so it holds at most this many entries, about 1.1 MB.
const maxFingerprints = 4096

// Server is the service core, independent of HTTP (http.go adapts it).
type Server struct {
	cfg   Config
	queue chan *execution
	wg    sync.WaitGroup // worker goroutines
	limit *limiter

	executed atomic.Int64 // executions started by workers
	builds   atomic.Int64 // FingerprintJob calls made by prepare

	// fingerprints memoizes prepare: a spec with TimeoutMS zeroed, the
	// one field that never reaches its bench.Job, to FingerprintJob of it.
	fpMu         sync.Mutex
	fingerprints map[JobSpec]wire.Hash

	mu       sync.Mutex
	jobs     map[int]*execution // job number -> what it resolved to
	execs    map[wire.Hash]*execution
	nextID   int // the last job number issued
	draining bool
	inflight sync.WaitGroup // executions accepted into the queue
}

// New builds and starts a server (workers begin draining the queue
// immediately). Close or Drain stops it.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *execution, cfg.QueueLen),
		limit: newLimiter(cfg.Rate, cfg.Burst),
		jobs:  make(map[int]*execution),
		execs: make(map[wire.Hash]*execution),

		fingerprints: make(map[JobSpec]wire.Hash),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Stats snapshots the counters. Jobs counts the retained jobs.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	st := s.cfg.Store.Stats()
	n := int(s.executed.Load())
	return Stats{
		Store: st, Runner: bench.RunnerStats{Submitted: n, Simulated: n},
		StoreHits: st.Hits, StoreMisses: st.Misses,
		Jobs: jobs, Draining: draining,
		RateLimited:       s.limit.rejected(),
		FingerprintBuilds: int(s.builds.Load()),
	}
}

// Submit registers one job. The returned job ID is immediately pollable;
// execution proceeds asynchronously. A store hit, a store error and a
// refusal (draining server, full queue) settle the job at submission; only
// an invalid spec fails Submit.
func (s *Server) Submit(spec JobSpec) (string, error) {
	p, err := s.prepare(spec)
	if err != nil {
		return "", err
	}
	id, _ := s.register(p)
	return id, nil
}

// prepared is a validated, fingerprinted spec, ready to register.
type prepared struct {
	spec JobSpec
	job  bench.Job
	key  wire.Hash
	prog *progress // non-nil for traced jobs
}

// prepare validates and fingerprints a spec without registering anything.
// A spec's fingerprint is a pure function of the spec within one binary:
// benchJob reads only the spec and constant tables, and a kernel build
// always gives the same bytes. So only a spec the memo does not hold
// builds the kernel; a failed fingerprint is not memoized.
func (s *Server) prepare(spec JobSpec) (prepared, error) {
	bj, err := s.benchJob(spec)
	if err != nil {
		return prepared{}, err
	}
	// A traced job carries its progress recorder in the options BEFORE
	// fingerprinting, so the fingerprint's Traced axis (and the payload's
	// stall section) match what actually runs.
	var prog *progress
	if spec.Trace {
		prog = newProgress()
		bj.Opts.Trace = prog
	}
	memo := spec
	memo.TimeoutMS = 0
	s.fpMu.Lock()
	key, ok := s.fingerprints[memo]
	s.fpMu.Unlock()
	if !ok {
		s.builds.Add(1)
		if key, err = bench.FingerprintJob(bj); err != nil {
			return prepared{}, err
		}
		s.fpMu.Lock()
		if len(s.fingerprints) == maxFingerprints {
			clear(s.fingerprints)
		}
		s.fingerprints[memo] = key
		s.fpMu.Unlock()
	}
	return prepared{spec: spec, job: bj, key: key, prog: prog}, nil
}

// register resolves p — to a refusal while draining, the in-flight
// execution of its fingerprint, the store's answer, or a newly queued
// execution — and only then issues its job ID.
func (s *Server) register(p prepared) (string, *execution) {
	s.mu.Lock()
	e := s.joinLocked(p.key)
	s.mu.Unlock()
	if e == nil {
		// Store lookup outside the server lock (it does disk I/O).
		payload, hit, err := s.cfg.Store.Get(p.key)
		switch {
		case err != nil:
			e = settled(StateFailed, nil, err.Error())
		case hit:
			e = settled(StateDone, payload, "")
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if e == nil {
		// A submission of the same fingerprint, or Drain, may have come
		// in during the store lookup.
		if e = s.joinLocked(p.key); e == nil {
			e = s.enqueueLocked(p)
		}
	}
	s.nextID++
	s.jobs[s.nextID] = e
	if s.nextID%keepJobs == 0 {
		for n, old := range s.jobs {
			if n <= s.nextID-keepJobs && old.isSettled() {
				delete(s.jobs, n)
			}
		}
	}
	return jobID(s.nextID), e
}

// joinLocked answers a job without the store or the queue: a refusal while
// draining, or the in-flight execution of its fingerprint. nil means
// neither.
func (s *Server) joinLocked(key wire.Hash) *execution {
	if s.draining {
		return settled(StateRejected, nil, "server draining")
	}
	return s.execs[key]
}

// enqueueLocked queues a new execution of p, or refuses it when the queue
// is full. Sending under s.mu keeps Drain, which empties the queue under
// s.mu, from missing it; a worker that takes it blocks on s.mu in execute
// before it can finish, so the execs entry and the inflight count come
// first.
func (s *Server) enqueueLocked(p prepared) *execution {
	ctx, cancel := context.WithCancel(context.Background())
	e := &execution{key: p.key, done: make(chan struct{}), progress: p.prog, cancel: cancel}
	e.run = func() { s.execute(ctx, e, p) }
	select {
	case s.queue <- e:
		s.execs[p.key] = e
		s.inflight.Add(1)
	default:
		cancel()
		e.settle(StateRejected, nil, "queue full")
	}
	return e
}

func jobID(n int) string { return "job-" + strconv.Itoa(n) }

// lookup resolves a job ID. e is nil when the ID was never issued or its
// job was evicted; gone is true in the second case.
func (s *Server) lookup(id string) (e *execution, gone bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || jobID(n) != id {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e = s.jobs[n]
	return e, e == nil && 0 < n && n <= s.nextID
}

// worker drains the execution queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		e.run()
		s.inflight.Done()
	}
}

// execute runs one unique simulation and settles its execution.
func (s *Server) execute(ctx context.Context, e *execution, p prepared) {
	timeout := s.cfg.JobTimeout
	if p.spec.TimeoutMS > 0 {
		d := time.Duration(p.spec.TimeoutMS) * time.Millisecond
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	e.running.Store(true)
	s.executed.Add(1)

	res, err := bench.Exec(ctx, p.job)
	var payload []byte
	if err == nil {
		doc := report.New("uveserve")
		doc.Serve = &report.Serve{Result: report.FromResult(res, p.job.Opts.Fidelity)}
		if e.progress != nil {
			doc.Serve.Result.Stalls, doc.Serve.Result.Drain = e.progress.breakdown()
		}
		payload, err = doc.Marshal()
	}
	if err == nil {
		// Persisting is best-effort: a full disk costs future hit-rate, not
		// this job's result.
		_ = s.cfg.Store.Put(e.key, payload)
	}
	// Unregister only now: a submission that no longer finds the
	// execution finds its payload in the store. A failed or canceled
	// execution is never persisted, so resubmitting it re-executes.
	s.mu.Lock()
	delete(s.execs, e.key)
	s.mu.Unlock()
	var ce *sim.CanceledError
	switch {
	case errors.As(err, &ce):
		e.settle(StateCanceled, nil, err.Error())
	case err != nil:
		e.settle(StateFailed, nil, err.Error())
	default:
		e.settle(StateDone, payload, "")
	}
}

// benchJob translates a spec into a bench.Job, validating every field.
func (s *Server) benchJob(spec JobSpec) (bench.Job, error) {
	k := kernels.ByID(spec.Kernel)
	if k == nil {
		for _, cand := range kernels.All {
			if cand.Name == spec.Kernel {
				k = cand
				break
			}
		}
	}
	if k == nil {
		return bench.Job{}, fmt.Errorf("unknown kernel %q", spec.Kernel)
	}
	v, err := cliflags.Variant(spec.Variant)
	if err != nil {
		return bench.Job{}, err
	}
	if spec.Size < 0 {
		return bench.Job{}, fmt.Errorf("invalid size %d", spec.Size)
	}
	if spec.Size > k.MaxSize {
		return bench.Job{}, fmt.Errorf("size %d over kernel %s's bound of %d", spec.Size, k.ID, k.MaxSize)
	}
	o := sim.DefaultOptions(v)
	if spec.Fidelity != "" {
		if o.Fidelity, err = sim.ParseFidelity(spec.Fidelity); err != nil {
			return bench.Job{}, err
		}
	}
	if spec.Sanitize != "" {
		if o.Sanitize, err = sim.ParseSanitizeMode(spec.Sanitize); err != nil {
			return bench.Job{}, err
		}
	}
	if spec.Trace {
		if o.Fidelity == sim.Functional {
			return bench.Job{}, fmt.Errorf("functional fidelity cannot record traces")
		}
	}
	return bench.Job{Kernel: k, Variant: v, Size: spec.Size, Opts: &o}, nil
}

// JobStatus is a snapshot of one job for the status API.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	FromStore bool     `json:"from_store,omitempty"`
	Error     string   `json:"error,omitempty"`
	Retriable bool     `json:"retriable,omitempty"`
	// Payload is the completed report document (done jobs only).
	Payload []byte `json:"-"`
}

// Status snapshots a job. An evicted job is not found.
func (s *Server) Status(id string) (JobStatus, bool) {
	if e, _ := s.lookup(id); e != nil {
		return e.status(id), true
	}
	return JobStatus{}, false
}

// Wait blocks until the job settles (or ctx is done) and returns its
// final status.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, bool) {
	e, _ := s.lookup(id)
	if e == nil {
		return JobStatus{}, false
	}
	select {
	case <-e.done:
	case <-ctx.Done():
	}
	return e.status(id), true
}

// Cancel aborts a job's execution (all jobs sharing the fingerprint see
// the cancellation; a canceled execution is never persisted, so a
// resubmission re-executes). Canceling a settled job does nothing.
func (s *Server) Cancel(id string) bool {
	e, _ := s.lookup(id)
	if e != nil {
		e.cancel()
	}
	return e != nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: new submissions are rejected
// retriably, queued-but-unstarted executions are rejected, in-flight
// simulations run to completion (bounded by ctx — when it expires their
// contexts are canceled too). Returns when every worker has exited.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	// Reject everything still sitting in the queue, with every job that
	// joined it. Submissions queue under s.mu, so none can follow.
queued:
	for {
		select {
		case e := <-s.queue:
			delete(s.execs, e.key)
			e.cancel()
			e.settle(StateRejected, nil, "server draining")
			s.inflight.Done()
		default:
			break queued
		}
	}
	s.mu.Unlock()

	// In-flight executions finish on their own — unless the drain context
	// expires first, in which case they are canceled.
	waitDone := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-ctx.Done():
		s.mu.Lock()
		for _, e := range s.execs {
			e.cancel()
		}
		s.mu.Unlock()
		<-waitDone
	}
	close(s.queue)
	s.wg.Wait()
}

// Close is an immediate Drain.
func (s *Server) Close() { s.Drain(context.Background()) }
