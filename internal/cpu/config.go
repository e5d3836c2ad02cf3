// Package cpu implements the out-of-order core model used for both the UVE
// machine and the SVE/NEON baselines (paper §IV and Table I): speculative
// fetch with branch prediction, register renaming over physical register
// files, dispatch into an issue window with per-port schedulers, a
// load/store queue with store-to-load forwarding, in-order commit, and
// ROB-walk recovery for branch mispredictions and precise exceptions. The
// streaming engine attaches at the rename and commit stages exactly as the
// paper describes.
package cpu

import (
	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Config sizes the core (defaults per Table I, modeled on the Cortex-A76).
type Config struct {
	FetchWidth  int
	CommitWidth int
	IssueWidth  int

	ROBSize     int
	IQSize      int
	SchedSize   int // per-port-group scheduler entries
	LQSize      int
	SQSize      int
	DecodeQueue int

	IntPRF  int
	FPPRF   int
	VecPRF  int
	PredPRF int

	IntALUs    int
	VecFPUs    int
	LoadPorts  int
	StorePorts int

	// VecBytes is the implemented vector register width: 64 (512-bit, the
	// paper's SVE/UVE configuration) or 16 (NEON).
	VecBytes int

	// MispredictPenalty is the front-end refill delay after a redirect.
	MispredictPenalty int

	// FaultPenalty models OS page-fault handling time.
	FaultPenalty int

	// Watchdog aborts the simulation when no instruction commits for this
	// many cycles (a modeling bug, not a program property). The abort is a
	// panic with a structured *WatchdogError carrying the ROB head and the
	// engine's stream-table dump; internal/sim recovers it into an error.
	Watchdog int64

	// MaxCycles, when positive, is a hard wall-clock-free bound: the run
	// aborts with a *WatchdogError once the cycle count exceeds it. Fault
	// campaigns set it so an injection-induced livelock can never hang a
	// test harness.
	MaxCycles int64

	// EventSkip enables event-driven cycle skipping: when every unit proves
	// itself quiescent, Run advances the clock directly to the earliest
	// reported next event instead of ticking through dead cycles. Purely a
	// wall-clock optimization — all statistics, cycle counts and results are
	// bit-identical with it on or off (the equivalence test enforces this).
	// Automatically disabled while a trace recorder is attached, since
	// tracing observes every cycle.
	EventSkip bool
}

// DefaultConfig returns the Table I core.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		CommitWidth: 4,
		IssueWidth:  8,

		ROBSize:     128,
		IQSize:      80,
		SchedSize:   24,
		LQSize:      32,
		SQSize:      48,
		DecodeQueue: 16,

		IntPRF:  128,
		FPPRF:   192,
		VecPRF:  48,
		PredPRF: 32,

		IntALUs:    2,
		VecFPUs:    2,
		LoadPorts:  2,
		StorePorts: 1,

		VecBytes: arch.MaxVecBytes,

		MispredictPenalty: 8,
		FaultPenalty:      300,
		Watchdog:          2_000_000,

		EventSkip: true,
	}
}

// Lanes returns the physical vector lane count for elements of width w.
func (c *Config) Lanes(w arch.ElemWidth) int { return arch.LanesFor(c.VecBytes, w) }

// BlockCause classifies why the rename stage stalled in a cycle (the
// Fig 8.C statistic breaks down by cause).
type BlockCause int

const (
	BlockNone BlockCause = iota
	BlockROB
	BlockIQ
	BlockScheduler
	BlockPRF
	BlockLQ
	BlockSQ
	BlockSCROB
	BlockStreamData  // input-stream FIFO had no ready chunk
	BlockStreamStore // output-stream FIFO had no addressed slot
	blockCauseCount
)

func (b BlockCause) String() string {
	switch b {
	case BlockNone:
		return "none"
	case BlockROB:
		return "rob"
	case BlockIQ:
		return "iq"
	case BlockScheduler:
		return "sched"
	case BlockPRF:
		return "prf"
	case BlockLQ:
		return "lq"
	case BlockSQ:
		return "sq"
	case BlockSCROB:
		return "scrob"
	case BlockStreamData:
		return "stream-data"
	case BlockStreamStore:
		return "stream-store"
	}
	return "?"
}

// stallClass maps a rename-blocking cause onto the trace package's
// canonical per-cycle attribution class.
func (b BlockCause) stallClass() trace.StallClass {
	switch b {
	case BlockROB:
		return trace.ClassRenameROB
	case BlockIQ:
		return trace.ClassRenameIQ
	case BlockScheduler:
		return trace.ClassRenameSched
	case BlockPRF:
		return trace.ClassRenamePRF
	case BlockLQ:
		return trace.ClassRenameLQ
	case BlockSQ:
		return trace.ClassRenameSQ
	case BlockSCROB:
		return trace.ClassRenameSCROB
	case BlockStreamData:
		return trace.ClassStreamData
	case BlockStreamStore:
		return trace.ClassStreamStore
	}
	return trace.ClassExec
}

// Stats aggregates core activity for the evaluation figures.
type Stats struct {
	Cycles    int64
	Committed uint64
	// CommittedByKind counts retired instructions per isa.Kind. A dense
	// array rather than a map: commit is the hottest loop in the simulator
	// and the per-retire map-assign showed up as the top allocation site.
	CommittedByKind [isa.KindCount]uint64
	// RenameBlocked counts cycles the rename stage stalled on structural
	// resources (ROB, IQ, schedulers, PRFs, LSQ, SCROB) — the Fig 8.C
	// metric. Waiting for stream data is tracked separately in StreamWait:
	// it reflects FIFO pacing of a saturated backend, not pipeline
	// pressure, and the paper's streaming design treats the pre-load into
	// the physical register as part of normal operand delivery.
	RenameBlocked    int64
	StreamWait       int64
	RenameBlockCause [blockCauseCount]int64
	Renamed          uint64
	Mispredicts      uint64
	BranchesResolved uint64
	Squashed         uint64
	LoadsExecuted    uint64
	StoresCommitted  uint64
	PageFaults       uint64
	FetchRedirects   uint64
	FetchStallCycles int64
	ROBOccupancySum  int64
}

// RenameBlocksPerCycle is the Fig 8.C metric.
func (s *Stats) RenameBlocksPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RenameBlocked) / float64(s.Cycles)
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
