package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one job share Job; Parent is the index
// of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end (-1 on a nil tracer).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the time its direct
// children cover, and how many children it has. Children run on their
// parent's goroutine, so they never overlap one another.
func selfTimes(spans []span) (self []time.Duration, children []int) {
	self = make([]time.Duration, len(spans))
	children = make([]int, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
			children[s.Parent]++
		}
	}
	return self, children
}

// writeSpans saves the spans as JSON for offline reading.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
