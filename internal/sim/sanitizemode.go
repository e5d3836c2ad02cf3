package sim

import (
	"fmt"

	"repro/internal/kernels"
)

// SanitizeMode selects how a run decides whether the byte-granular stream
// sanitizer (shadow address tracking) is enabled.
type SanitizeMode int

const (
	// SanitizeOff never tracks (the default; timing experiments).
	SanitizeOff SanitizeMode = iota
	// SanitizeOn always tracks on UVE runs (verification sweeps).
	SanitizeOn
	// SanitizeAuto consults the static safety certificate: when every
	// dependence pair of the program was proved disjoint
	// (lint.SafetyCertificate.CollisionFree), shadow tracking is elided —
	// the sanitizer could only ever observe zero collisions. Uncertified
	// programs and fault-injected runs track exactly like SanitizeOn.
	SanitizeAuto
)

// String returns the CLI spelling of the mode.
func (m SanitizeMode) String() string {
	switch m {
	case SanitizeOff:
		return "off"
	case SanitizeOn:
		return "on"
	case SanitizeAuto:
		return "auto"
	}
	return fmt.Sprintf("SanitizeMode(%d)", int(m))
}

// ParseSanitizeMode parses a CLI spelling. The boolean spellings keep the
// historical -sanitize flag working: true/on enable, false/off disable.
func ParseSanitizeMode(s string) (SanitizeMode, error) {
	switch s {
	case "off", "false", "":
		return SanitizeOff, nil
	case "on", "true":
		return SanitizeOn, nil
	case "auto":
		return SanitizeAuto, nil
	}
	return SanitizeOff, fmt.Errorf("unknown sanitize mode %q (want off, on or auto)", s)
}

// debugForceSanitize is a test-only hook: when set, SanitizeAuto runs the
// sanitizer even on certified programs (while still reporting
// Result.SanitizerElided) so differential tests can assert the certificate
// is truthful — a certified run must observe zero collisions.
var debugForceSanitize = false

// resolveSanitize decides whether shadow tracking runs for this instance,
// and whether it was elided on the strength of a safety certificate. Only
// streaming runs have streams to track; fault campaigns never elide
// (injection reorders engine timing, and the sanitizer is the oracle that
// proves the reordering is architecturally invisible). The instance is
// asked for its certificate only when the decision depends on it.
func (o *Options) resolveSanitize(streaming bool, inst *kernels.Instance) (enable, elided bool) {
	if !streaming {
		return false, false
	}
	switch o.Sanitize {
	case SanitizeOn:
		return true, false
	case SanitizeAuto:
		if o.Faults != nil && o.Faults.Enabled() {
			return true, false
		}
		if inst.Certificate().CollisionFree {
			return debugForceSanitize, true
		}
		return true, false
	}
	return false, false
}
