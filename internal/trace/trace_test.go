package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The Nop recorder sits on the per-instruction commit path; it must add
// zero allocations (ISSUE 4 satellite).
func TestNopRecorderZeroAllocs(t *testing.T) {
	rec := Nop
	allocs := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			rec.Emit(Event{Cycle: 1, Kind: EvCommit, Arg0: 42, Arg1: 7})
		}
		rec.Emit(Event{Cycle: 1, Kind: EvCycleClass, Arg0: int64(ClassBusy)})
	})
	if allocs != 0 {
		t.Fatalf("Nop recorder: %v allocs per commit, want 0", allocs)
	}
}

// Steady-state Collector emission must also be allocation-free: the ring is
// preallocated and cycle-class events only bump interval counters.
func TestCollectorSteadyStateZeroAllocs(t *testing.T) {
	c := NewCollector(64, 0)
	// Warm up: fill the ring and create the single interval.
	for i := int64(1); i <= 128; i++ {
		c.Emit(Event{Cycle: i, Kind: EvCommit, Arg0: i})
		c.Emit(Event{Cycle: i, Kind: EvCycleClass, Arg0: int64(ClassBusy)})
	}
	cyc := int64(129)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Emit(Event{Cycle: cyc, Kind: EvCommit, Arg0: cyc})
		c.Emit(Event{Cycle: cyc, Kind: EvCycleClass, Arg0: int64(ClassBusy)})
		cyc++
	})
	if allocs != 0 {
		t.Fatalf("Collector steady state: %v allocs per emit pair, want 0", allocs)
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(4, 0)
	for i := int64(1); i <= 6; i++ {
		c.Emit(Event{Cycle: i, Kind: EvIssue, Arg0: i})
	}
	ev := c.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(i + 3); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
	if c.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", c.Dropped())
	}

	// Attribution-only collector keeps no point events but counts drops.
	c0 := NewCollector(0, 0)
	c0.Emit(Event{Cycle: 1, Kind: EvIssue})
	if len(c0.Events()) != 0 || c0.Dropped() != 1 {
		t.Errorf("ring-less collector: events=%d dropped=%d, want 0/1",
			len(c0.Events()), c0.Dropped())
	}
}

func TestAttributionIntervals(t *testing.T) {
	c := NewCollector(0, 10)
	classes := []StallClass{ClassBusy, ClassFrontend, ClassMemory, ClassStreamData, ClassDrain}
	for i := int64(1); i <= 25; i++ {
		c.Emit(Event{Cycle: i, Kind: EvCycleClass, Arg0: int64(classes[i%int64(len(classes))])})
	}
	att := c.Attribution()
	ivs := att.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("%d intervals for 25 cycles at interval 10, want 3", len(ivs))
	}
	if ivs[0].Start != 0 || ivs[1].Start != 10 || ivs[2].Start != 20 {
		t.Errorf("interval starts %d/%d/%d, want 0/10/20", ivs[0].Start, ivs[1].Start, ivs[2].Start)
	}
	if ivs[0].Sum() != 10 || ivs[1].Sum() != 10 || ivs[2].Sum() != 5 {
		t.Errorf("interval sums %d/%d/%d, want 10/10/5", ivs[0].Sum(), ivs[1].Sum(), ivs[2].Sum())
	}
	if got := att.Attributed(); got != 25 {
		t.Errorf("Attributed() = %d, want 25", got)
	}
	tot := att.Totals()
	if got := att.AttributedExcludingDrain(); got != 25-tot[ClassDrain] {
		t.Errorf("AttributedExcludingDrain() = %d, want %d", got, 25-tot[ClassDrain])
	}
	if tot[ClassDrain] == 0 {
		t.Error("expected some drain cycles in the test pattern")
	}

	// The breakdown names the four non-drain classes with their cycles (5
	// each) and returns the drain count apart; absent classes stay out.
	bd, drain := att.Breakdown()
	if drain != tot[ClassDrain] || len(bd) != 4 {
		t.Errorf("Breakdown() = %v, drain %d; want 4 classes and drain %d", bd, drain, tot[ClassDrain])
	}
	for _, cl := range classes[:4] {
		if bd[cl.String()] != 5 {
			t.Errorf("Breakdown()[%s] = %d, want 5", cl, bd[cl.String()])
		}
	}
	if bd, _ := new(Attribution).Breakdown(); bd == nil || len(bd) != 0 {
		t.Errorf("empty attribution Breakdown() = %#v, want an empty non-nil map", bd)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	c := NewCollector(16, 8)
	emitSample(c)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, c); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteChrome emitted invalid JSON:\n%s", buf.String())
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("unmarshal trace array: %v", err)
	}
	var metas, counters, instants int
	for _, e := range events {
		switch e["ph"] {
		case "M":
			metas++
		case "C":
			counters++
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if metas == 0 || counters == 0 || instants == 0 {
		t.Errorf("metas=%d counters=%d instants=%d, want all > 0", metas, counters, instants)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, NewCollector(0, 0)); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// An empty collector still carries the attribution lane metadata, and
	// the output must stay a valid (possibly near-empty) JSON array.
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace is invalid JSON:\n%s", buf.String())
	}
}

func TestWriteText(t *testing.T) {
	c := NewCollector(16, 8)
	emitSample(c)
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"stall attribution", "busy", "fifo-data", "stream-config", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("text timeline missing %q:\n%s", want, out)
		}
	}
}

// emitSample drives a collector with a representative mix of events.
func emitSample(c *Collector) {
	c.Emit(Event{Cycle: 1, Kind: EvStreamConfig, Arg0: 0, Arg1: 1})
	c.Emit(Event{Cycle: 2, Kind: EvFetchStall})
	c.Emit(Event{Cycle: 3, Kind: EvRenameBlock, Arg0: int64(ClassStreamData)})
	c.Emit(Event{Cycle: 4, Kind: EvChunkProduced, Arg0: 0, Arg1: 0, Arg2: 16})
	c.Emit(Event{Cycle: 5, Kind: EvChunkConsumed, Arg0: 0, Arg1: 0})
	c.Emit(Event{Cycle: 6, Kind: EvIssue, Arg0: 12, Arg1: 3})
	c.Emit(Event{Cycle: 7, Kind: EvCommit, Arg0: 12, Arg1: 3})
	c.Emit(Event{Cycle: 8, Kind: EvFIFOFull, Arg0: 0})
	c.Emit(Event{Cycle: 9, Kind: EvMRQFull})
	c.Emit(Event{Cycle: 10, Kind: EvStreamEnd, Arg0: 0, Arg1: 1})
	for i := int64(1); i <= 10; i++ {
		cl := ClassBusy
		if i%3 == 0 {
			cl = ClassStreamData
		}
		c.Emit(Event{Cycle: i, Kind: EvCycleClass, Arg0: int64(cl)})
	}
}

func TestEventKindAndClassStrings(t *testing.T) {
	for k := EventKind(0); k < EventKindCount; k++ {
		if k.String() == "?" {
			t.Errorf("EventKind %d has no name", k)
		}
	}
	for cl := StallClass(0); cl < ClassCount; cl++ {
		if cl.String() == "?" {
			t.Errorf("StallClass %d has no name", cl)
		}
	}
	if EventKindCount.String() != "?" || ClassCount.String() != "?" {
		t.Error("out-of-range String() should return ?")
	}
}
