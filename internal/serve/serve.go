// Package serve implements uveserve: a content-addressed simulation
// service. Clients submit (kernel, variant, size, config) jobs over
// HTTP/JSON; the server fingerprints each job (bench.FingerprintJob — the
// SHA-256 of the built program's canonical wire encoding plus the
// canonical config hash), consults the persistent result store, and only
// simulates what the store has never seen. Completed payloads are
// versioned report.Documents whose bytes are a pure function of the job's
// content — no job IDs, no timestamps — so N clients submitting the same
// matrix receive byte-identical reports, across workers, processes and
// daemon restarts.
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
}

// execution is one unique simulation in flight or completed: jobs with
// equal fingerprints share one execution (the server's singleflight).
// done is closed after payload/err are final.
type execution struct {
	key      wire.Hash
	done     chan struct{}
	run      func() // set before enqueue; invoked by one worker
	running  atomic.Bool
	payload  []byte // marshaled report.Document; nil on error
	err      error
	canceled bool
	progress *progress // non-nil for traced jobs
	cancel   context.CancelFunc
}

// job is one client submission.
type job struct {
	id    string
	spec  JobSpec
	state JobState
	exec  *execution // nil for rejected jobs
	// fromStore marks jobs satisfied without simulating.
	fromStore bool
	errMsg    string
}

// Server is the service core, independent of HTTP (http.go adapts it).
type Server struct {
	cfg   Config
	queue chan *execution
	wg    sync.WaitGroup // worker goroutines
	limit *limiter

	executed atomic.Int64 // executions started by workers

	mu       sync.Mutex
	jobs     map[string]*job
	execs    map[wire.Hash]*execution
	nextID   int
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
		jobs:  make(map[string]*job),
		execs: make(map[wire.Hash]*execution),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Stats snapshots the counters.
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
		RateLimited: s.limit.rejected(),
	}
}

// errRetriable marks submission-time refusals the client should retry
// against a healthy (or restarted) daemon.
var errRetriable = errors.New("retriable")

// Submit registers one job. The returned job ID is immediately pollable;
// execution proceeds asynchronously. A store hit completes the job
// without queueing anything. Submission fails with an error wrapping
// errRetriable when the server is draining or the queue is full.
func (s *Server) Submit(spec JobSpec) (string, error) {
	bj, err := s.benchJob(spec)
	if err != nil {
		return "", err
	}
	// A traced job carries its progress recorder in the options BEFORE
	// fingerprinting, so the fingerprint's Traced axis (and the payload's
	// stall section) match what actually runs.
	var prog *progress
	if spec.Trace {
		prog = newProgress()
		bj.Opts.Trace = prog
	}
	key, err := bench.FingerprintJob(bj)
	if err != nil {
		return "", err
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{id: id, spec: spec}
	s.jobs[id] = j

	if s.draining {
		j.state = StateRejected
		j.errMsg = "server draining"
		s.mu.Unlock()
		return id, nil
	}
	if e, ok := s.execs[key]; ok {
		// Singleflight: join the in-flight (or completed) execution.
		j.exec = e
		j.state = StateQueued
		s.mu.Unlock()
		return id, nil
	}
	s.mu.Unlock()

	// Store lookup outside the server lock (it does disk I/O).
	payload, hit, err := s.cfg.Store.Get(key)
	if err != nil {
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = err.Error()
		s.mu.Unlock()
		return id, nil
	}
	if hit {
		e := &execution{key: key, done: make(chan struct{}), payload: payload}
		close(e.done)
		s.mu.Lock()
		j.exec = e
		j.state = StateDone
		j.fromStore = true
		s.mu.Unlock()
		return id, nil
	}

	e := &execution{key: key, done: make(chan struct{}), progress: prog}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.reject(j, "server draining")
		return id, nil
	}
	if prev, ok := s.execs[key]; ok {
		// Lost a submit race for the same fingerprint; join the winner.
		s.mu.Unlock()
		cancel()
		s.mu.Lock()
		j.exec = prev
		j.state = StateQueued
		s.mu.Unlock()
		return id, nil
	}
	s.execs[key] = e
	j.exec = e
	j.state = StateQueued
	s.inflight.Add(1)
	s.mu.Unlock()

	// Arm the job's execution context now that it is committed.
	e.run = func() { s.execute(ctx, e, bj, spec) }
	select {
	case s.queue <- e:
	default:
		// Queue full: back the registration out and reject retriably.
		s.mu.Lock()
		delete(s.execs, key)
		s.mu.Unlock()
		s.inflight.Done()
		cancel()
		s.reject(j, "queue full")
	}
	return id, nil
}

func (s *Server) reject(j *job, msg string) {
	s.mu.Lock()
	j.state = StateRejected
	j.errMsg = msg
	j.exec = nil
	s.mu.Unlock()
}

// worker drains the execution queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		e.run()
		s.inflight.Done()
	}
}

// execute runs one unique simulation and finalizes its execution record.
func (s *Server) execute(ctx context.Context, e *execution, bj bench.Job, spec JobSpec) {
	timeout := s.cfg.JobTimeout
	if spec.TimeoutMS > 0 {
		d := time.Duration(spec.TimeoutMS) * time.Millisecond
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

	res, err := bench.Exec(ctx, bj)
	var payload []byte
	if err == nil {
		doc := report.New("uveserve")
		doc.Serve = &report.Serve{Result: report.FromResult(res, bj.Opts.Fidelity)}
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
	e.canceled = errors.As(err, &ce)
	e.payload, e.err = payload, err
	close(e.done)
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

// Status snapshots a job, resolving its execution's current state.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false
	}
	st := JobStatus{ID: j.id, State: j.state, FromStore: j.fromStore, Error: j.errMsg}
	e := j.exec
	s.mu.Unlock()

	if st.State == StateRejected {
		st.Retriable = true
		return st, true
	}
	if e == nil {
		return st, true
	}
	select {
	case <-e.done:
		switch {
		case e.canceled:
			st.State = StateCanceled
			st.Error = e.err.Error()
		case e.err != nil:
			st.State = StateFailed
			st.Error = e.err.Error()
		default:
			st.State = StateDone
			st.Payload = e.payload
		}
	default:
		if e.running.Load() {
			st.State = StateRunning
		} else {
			st.State = StateQueued
		}
	}
	return st, true
}

// Wait blocks until the job settles (or ctx is done) and returns its
// final status.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var e *execution
	if ok {
		e = j.exec
	}
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	if e != nil {
		select {
		case <-e.done:
		case <-ctx.Done():
		}
	}
	return s.Status(id)
}

// Cancel aborts a job's execution (all jobs sharing the fingerprint see
// the cancellation; a canceled execution is never persisted, so a
// resubmission re-executes).
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var e *execution
	if ok {
		e = j.exec
	}
	s.mu.Unlock()
	if !ok || e == nil || e.cancel == nil {
		return ok
	}
	e.cancel()
	return true
}

// Progress returns the progress tracker for a traced, executing job
// (nil when the job is untraced, unknown, or already complete-from-store).
func (s *Server) Progress(id string) *progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.exec != nil {
		return j.exec.progress
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: new submissions are rejected
// retriably, queued-but-unstarted executions are canceled and their jobs
// rejected, in-flight simulations run to completion (bounded by ctx —
// when it expires their contexts are canceled too). Returns when every
// worker has exited.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()

	// Reject everything still sitting in the queue: its jobs flip to
	// rejected/retriable and their executions end canceled.
	for {
		select {
		case e := <-s.queue:
			s.mu.Lock()
			delete(s.execs, e.key)
			e.err = fmt.Errorf("serve: %w: server draining before execution", errRetriable)
			e.canceled = true
			for _, j := range s.jobs {
				if j.exec == e {
					j.state = StateRejected
					j.errMsg = "server draining"
					j.exec = nil
				}
			}
			s.mu.Unlock()
			close(e.done)
			s.inflight.Done()
		default:
			goto drained
		}
	}
drained:
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
			if e.cancel != nil {
				e.cancel()
			}
		}
		s.mu.Unlock()
		<-waitDone
	}
	close(s.queue)
	s.wg.Wait()
}

// Close is an immediate Drain.
func (s *Server) Close() { s.Drain(context.Background()) }
