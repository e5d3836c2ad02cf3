package sim

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/mem"
)

// sanitizeSizes keeps the byte-granular shadow tracker cheap; the shapes
// (stream counts, lockstep overlaps, scalar epilogues) do not depend on the
// problem size.
var sanitizeSizes = map[string]int{
	"A": 256, "B": 256, "C": 260, "D": 16, "E": 16, "F": 32, "G": 16,
	"H": 24, "I": 120, "J": 16, "K": 6, "L": 32, "M": 32, "N": 16,
	"O": 16, "P": 16, "Q": 16, "R": 12, "S": 12,
}

// staticExplains reports whether the analyzer's verdicts admit the observed
// collision: at least one pair for the same accessors was NOT proven
// disjoint. A collision whose every matching pair is DepDisjoint is an
// analyzer soundness bug. Accessor pairs the analyzer never formed (runtime
// liveness it did not see) are vacuously admitted.
func staticExplains(deps []lint.DepPair, c engine.Collision) bool {
	matched := false
	for _, d := range deps {
		var hit bool
		if c.StreamB >= 0 {
			hit = (d.First == c.StreamA && d.Second == c.StreamB) ||
				(d.First == c.StreamB && d.Second == c.StreamA)
		} else {
			hit = d.First == c.StreamA && d.Second == -1 && d.SecondPC == c.ScalarPC
		}
		if !hit {
			continue
		}
		matched = true
		if d.Verdict != lint.DepDisjoint {
			return true
		}
	}
	return !matched
}

// TestSanitizerCrossCheck runs every UVE kernel with the runtime stream
// sanitizer on and checks the analyzer's verdicts against the observed
// collisions: the analyzer may be imprecise (unknowns), but it must never
// have proven disjoint a pair the hardware model actually collides.
func TestSanitizerCrossCheck(t *testing.T) {
	totalCollisions := 0
	for _, k := range kernels.All {
		k := k
		t.Run(k.ID+"-"+k.Name, func(t *testing.T) {
			size := sanitizeSizes[k.ID]
			if size == 0 {
				size = 16
			}
			// The cross-check compares accessor pairs, not timing, so the
			// sweep runs on the functional tier: the sanitizer observes the
			// same byte addresses an order of magnitude faster.
			opts := DefaultOptions(kernels.UVE)
			opts.Fidelity = Functional
			opts.Sanitize = SanitizeOn
			var inst *kernels.Instance
			res, err := RunBuiltContext(context.Background(), k.ID, kernels.UVE, size, &opts, func(h *mem.Hierarchy) *kernels.Instance {
				inst = k.Build(h, kernels.UVE, size)
				return inst
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Collisions {
				totalCollisions++
				if !staticExplains(inst.Deps, c) {
					t.Errorf("collision %s contradicts a proven-disjoint static verdict (deps: %v)", c, inst.Deps)
				} else {
					t.Logf("collision %s admitted by static verdicts", c)
				}
			}
		})
	}
	if totalCollisions == 0 {
		t.Error("no collisions observed across all kernels — the lockstep idioms must collide; is the sanitizer recording?")
	}
}

// TestSanitizerOffByDefault checks that plain runs carry no collision state.
func TestSanitizerOffByDefault(t *testing.T) {
	res, err := Run(kernels.ByID("S"), kernels.UVE, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions != nil {
		t.Fatalf("collisions without Sanitize: %v", res.Collisions)
	}
}
