package serve

import (
	"sync"

	"repro/internal/trace"
)

// progress is a thread-safe trace.Recorder for streamed job progress: it
// wraps a stall-attribution Collector (which is single-goroutine by
// design) in a mutex so the simulating worker can emit while HTTP stream
// handlers snapshot. Point events are not retained (ring size 0) — the
// stream wants "how far along and why", not the event firehose.
type progress struct {
	mu    sync.Mutex
	col   *trace.Collector
	cycle int64
	insts int64
}

func newProgress() *progress {
	return &progress{col: trace.NewCollector(0, 0)}
}

// Enabled implements trace.Recorder.
func (p *progress) Enabled() bool { return true }

// Emit implements trace.Recorder.
func (p *progress) Emit(e trace.Event) {
	p.mu.Lock()
	p.col.Emit(e)
	if e.Cycle > p.cycle {
		p.cycle = e.Cycle
	}
	if e.Kind == trace.EvCommit {
		p.insts++
	}
	p.mu.Unlock()
}

// Snapshot is one streamed progress sample.
type Snapshot struct {
	Cycle     int64 `json:"cycle"`
	Committed int64 `json:"committed"`
}

// snapshot samples the current cycle/commit counts.
func (p *progress) snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{Cycle: p.cycle, Committed: p.insts}
}

// breakdown is the attribution's stall breakdown (see
// trace.Attribution.Breakdown), read under the lock.
func (p *progress) breakdown() (map[string]int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.col.Attribution().Breakdown()
}
