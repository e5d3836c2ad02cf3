package mem

import (
	"fmt"

	"repro/internal/arch"
)

// DRAMConfig sizes the DRAM model. The defaults approximate the paper's
// dual-channel DDR3-1600 8x8 11-11-11 at a 1.5 GHz core clock: each channel
// sustains 12.8 GB/s ≈ 8.5 B per core cycle, i.e. one 64 B line per ~8
// cycles, with an access latency of roughly 60 core cycles.
type DRAMConfig struct {
	Channels      int
	AccessLatency int // cycles from service start to data
	LineService   int // cycles a channel is occupied per line (bandwidth)
	QueueDepth    int // per-channel request queue
}

// DefaultDRAMConfig matches Table I.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Channels: 2, AccessLatency: 60, LineService: 8, QueueDepth: 32}
}

// DRAMStats aggregates traffic for the Fig 8.D bus-utilization metric.
type DRAMStats struct {
	Reads, Writes   uint64 // lines transferred
	ReadBytes       uint64
	WriteBytes      uint64
	BusyCycles      uint64 // channel-cycles spent transferring
	QueueFullStalls uint64
}

// DRAM is the dual-channel memory model.
type DRAM struct {
	cfg      DRAMConfig
	chans    []dramChannel
	activity uint64
	Stats    DRAMStats

	// Inject, when non-nil, returns extra service latency for a request
	// starting at now (deterministic transient-spike injection, modeling
	// refresh/bank conflicts). Timing only: data and ordering are
	// unaffected.
	Inject func(now int64) int64
}

// dramChannel serves its queue in order, so the started requests are always
// a prefix of it: started counts them, and doneAt is the earliest doneAt
// among them (NoEvent when none is started). Tick scans for retirements
// only from that cycle on.
type dramChannel struct {
	queue   []dramReq // arrival order, at most QueueDepth
	freeAt  int64     // cycle the data bus becomes free
	started int
	doneAt  int64
}

type dramReq struct {
	req     Req // a copy: Access keeps no pointer to the caller's request
	doneAt  int64
	started bool
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg, chans: make([]dramChannel, cfg.Channels)}
	for i := range d.chans {
		d.chans[i].doneAt = NoEvent
	}
	return d
}

func (d *DRAM) channelOf(line uint64) int {
	return int(line/arch.LineSize) % d.cfg.Channels
}

// Access implements Port.
func (d *DRAM) Access(now int64, r *Req) bool {
	d.activity++ // enqueue, or the queue-full tally
	ch := &d.chans[d.channelOf(r.Line)]
	if len(ch.queue) >= d.cfg.QueueDepth {
		d.Stats.QueueFullStalls++
		return false
	}
	ch.queue = append(ch.queue, dramReq{req: *r})
	return true
}

// Tick implements Port: each channel starts at most one queued request per
// cycle, serializing on the data bus, and completes requests whose latency
// has elapsed.
func (d *DRAM) Tick(now int64) {
	for i := range d.chans {
		ch := &d.chans[i]
		// Start the oldest unstarted request if the bus is free (in-order
		// service per channel).
		if ch.started < len(ch.queue) && ch.freeAt <= now {
			dr := &ch.queue[ch.started]
			ch.started++
			dr.started = true
			lat := int64(d.cfg.AccessLatency)
			if d.Inject != nil {
				lat += d.Inject(now)
			}
			d.activity++
			dr.doneAt = now + lat
			ch.doneAt = min(ch.doneAt, dr.doneAt)
			ch.freeAt = now + int64(d.cfg.LineService)
			d.Stats.BusyCycles += uint64(d.cfg.LineService)
			if dr.req.Write {
				d.Stats.Writes++
				d.Stats.WriteBytes += arch.LineSize
			} else {
				d.Stats.Reads++
				d.Stats.ReadBytes += arch.LineSize
			}
		}
		if now < ch.doneAt {
			continue
		}
		// Retire finished requests, oldest first. A completion callback
		// may enqueue a new (unstarted) request behind the started prefix.
		ch.doneAt = NoEvent
		for j := 0; j < ch.started; {
			if dr := &ch.queue[j]; dr.doneAt > now {
				ch.doneAt = min(ch.doneAt, dr.doneAt)
				j++
				continue
			}
			d.activity++
			done := ch.queue[j].req.Done
			ch.queue = append(ch.queue[:j], ch.queue[j+1:]...)
			ch.started--
			if done != nil {
				done(now)
			}
		}
	}
}

// PeakBytesPerCycle is the aggregate data-bus capacity used as the
// denominator of the utilization metric.
func (d *DRAM) PeakBytesPerCycle() float64 {
	return float64(d.cfg.Channels) * arch.LineSize / float64(d.cfg.LineService)
}

// Utilization returns (ReadBW+WriteBW)/PeakBW over the elapsed cycles,
// exactly the Fig 8.D metric.
func (d *DRAM) Utilization(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	total := float64(d.Stats.ReadBytes + d.Stats.WriteBytes)
	return total / (float64(cycles) * d.PeakBytesPerCycle())
}

// Pending reports the number of in-flight requests across channels.
func (d *DRAM) Pending() int {
	n := 0
	for i := range d.chans {
		n += len(d.chans[i].queue)
	}
	return n
}

func (d *DRAM) String() string {
	return fmt.Sprintf("DRAM{%dch, %d reads, %d writes}", d.cfg.Channels, d.Stats.Reads, d.Stats.Writes)
}
