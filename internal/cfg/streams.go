package cfg

import (
	"repro/internal/descriptor"
	"repro/internal/isa"
)

// Site is one completed stream-configuration run: the µOps [StartPC, EndPC]
// that configure Stream, and the descriptor they assemble.
type Site struct {
	Stream         int
	StartPC, EndPC int
	Desc           *descriptor.Descriptor // nil when reassembly failed
	Err            error                  // why reassembly failed
}

// FaultKind classifies a configuration-sequencing fault.
type FaultKind int

const (
	// BadStream: the part names a stream register that does not exist.
	BadStream FaultKind = iota
	// Restarted: a start part arrives while the stream's previous run is
	// still open; the open run is dropped.
	Restarted
	// Orphan: a continuation part arrives with no open run; it is skipped.
	Orphan
	// Unterminated: the run starting at PC never reaches its ss.end part.
	Unterminated
)

// Fault is one configuration-sequencing fault, anchored to a part's pc.
type Fault struct {
	Kind   FaultKind
	PC     int
	Stream int
}

// StreamConfigs scans insts linearly and groups every stream's
// configuration µOps into runs from a start part to an ss.end part. It
// returns the completed runs in program order and the sequencing faults in
// program order, unterminated runs last (by stream).
func StreamConfigs(insts []isa.Inst) ([]Site, []Fault) {
	var sites []Site
	var faults []Fault
	var open [isa.NumVecRegs][]*isa.StreamCfgPart
	var startPC [isa.NumVecRegs]int
	for pc := range insts {
		in := &insts[pc]
		if in.Op != isa.OpSCfg || in.Cfg == nil {
			continue
		}
		part := in.Cfg
		u := part.Stream
		switch {
		case u < 0 || u >= isa.NumVecRegs:
			faults = append(faults, Fault{BadStream, pc, u})
			continue
		case part.Start:
			if len(open[u]) > 0 {
				faults = append(faults, Fault{Restarted, pc, u})
			}
			open[u] = open[u][:0]
			startPC[u] = pc
		case len(open[u]) == 0:
			faults = append(faults, Fault{Orphan, pc, u})
			continue
		}
		open[u] = append(open[u], part)
		if part.End {
			d, err := isa.RebuildDescriptor(open[u])
			sites = append(sites, Site{Stream: u, StartPC: startPC[u], EndPC: pc, Desc: d, Err: err})
			open[u] = open[u][:0]
		}
	}
	for u := range open {
		if len(open[u]) > 0 {
			faults = append(faults, Fault{Unterminated, startPC[u], u})
		}
	}
	return sites, faults
}
