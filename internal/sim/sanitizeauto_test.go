package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/mem"
)

// autoOpts is the SanitizeAuto sweep configuration the tests below share:
// functional tier (the certificate decision is tier-independent) with the
// final memory image hashed for differential comparison.
func autoOpts() Options {
	o := DefaultOptions(kernels.UVE)
	o.Fidelity = Functional
	o.Sanitize = SanitizeAuto
	o.HashMem = true
	return o
}

// TestSanitizeAutoDifferential is the elision soundness oracle: for every
// kernel whose certificate proves all pairs disjoint, the elided run and a
// forced-sanitizer run (test-only hook) must produce byte-identical final
// memory, and the forced run must observe zero collisions — the certificate
// said there was nothing to see, and the sanitizer agrees.
func TestSanitizeAutoDifferential(t *testing.T) {
	certified := 0
	for _, k := range kernels.All {
		k := k
		t.Run(k.ID+"-"+k.Name, func(t *testing.T) {
			size := sanitizeSizes[k.ID]
			if size == 0 {
				size = 16
			}
			opts := autoOpts()
			var inst *kernels.Instance
			res, err := RunBuiltContext(context.Background(), k.ID, kernels.UVE, size, &opts, func(h *mem.Hierarchy) *kernels.Instance {
				inst = k.Build(h, kernels.UVE, size)
				return inst
			})
			if err != nil {
				t.Fatal(err)
			}
			cert := lint.Certify(inst.Diags, inst.Deps)
			if res.SanitizerElided != cert.CollisionFree {
				t.Fatalf("SanitizerElided=%v but certificate CollisionFree=%v (%+v)",
					res.SanitizerElided, cert.CollisionFree, cert)
			}
			if !cert.CollisionFree {
				t.Skipf("not certified (%+v): elision not attempted", cert)
			}
			certified++
			if len(res.Collisions) != 0 {
				t.Fatalf("elided run recorded collisions: %v", res.Collisions)
			}

			// Forced run: same mode, sanitizer actually tracking.
			debugForceSanitize = true
			defer func() { debugForceSanitize = false }()
			opts2 := autoOpts()
			forced, err := RunBuiltContext(context.Background(), k.ID, kernels.UVE, size, &opts2, func(h *mem.Hierarchy) *kernels.Instance {
				return k.Build(h, kernels.UVE, size)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !forced.SanitizerElided {
				t.Fatalf("forced run lost the elision verdict")
			}
			if len(forced.Collisions) != 0 {
				t.Errorf("certificate proved all pairs disjoint but the sanitizer observed: %v", forced.Collisions)
			}
			if forced.MemHash != res.MemHash {
				t.Errorf("final memory differs: elided %#x vs sanitized %#x", res.MemHash, forced.MemHash)
			}
		})
	}
	if certified == 0 {
		t.Error("no kernel certified collision-free — the prover should certify at least HACCmk/UVE")
	}
}

// TestSanitizeAutoUncertified checks the fallback: when a kernel's pairs
// stay unknown, SanitizeAuto must keep shadow tracking on (no elision
// without a certificate).
func TestSanitizeAutoUncertified(t *testing.T) {
	k := kernels.ByID("M") // KNN: its indirect stream keeps one pair unknown
	if k == nil || k.Name != "KNN" {
		t.Fatal("kernel M is not KNN")
	}
	opts := autoOpts()
	var inst *kernels.Instance
	res, err := RunBuiltContext(context.Background(), k.ID, kernels.UVE, sanitizeSizes[k.ID], &opts, func(h *mem.Hierarchy) *kernels.Instance {
		inst = k.Build(h, kernels.UVE, sanitizeSizes[k.ID])
		return inst
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert := lint.Certify(inst.Diags, inst.Deps); cert.CollisionFree {
		t.Fatalf("KNN certified (%+v); the fallback test needs an uncertified program", cert)
	}
	if res.SanitizerElided {
		t.Fatal("uncertified program elided the sanitizer")
	}
}

// TestSanitizeAutoFaultsNeverElide checks that fault-injection campaigns
// keep the sanitizer on even for certified programs: injection perturbs
// engine timing, and the sanitizer is the oracle that shows the
// perturbation is architecturally invisible.
func TestSanitizeAutoFaultsNeverElide(t *testing.T) {
	k := kernels.ByID("A") // Memcpy: disjoint streams, certified
	o := DefaultOptions(kernels.UVE)
	o.Sanitize = SanitizeAuto
	plan := fault.DefaultPlan(7)
	o.Faults = &plan
	res, err := Run(k, kernels.UVE, 256, &o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SanitizerElided {
		t.Fatal("fault-injected run elided the sanitizer")
	}
	// And without faults the same kernel does elide, so the fault gate is
	// what made the difference.
	o2 := DefaultOptions(kernels.UVE)
	o2.Sanitize = SanitizeAuto
	res2, err := Run(k, kernels.UVE, 256, &o2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.SanitizerElided {
		t.Skip("saxpy not certified at this size; fault gate still verified above")
	}
}

// TestSanitizeAutoNonUVE checks the baselines: no streams, nothing to
// track, never an elision claim.
func TestSanitizeAutoNonUVE(t *testing.T) {
	o := DefaultOptions(kernels.SVE)
	o.Fidelity = Functional
	o.Sanitize = SanitizeAuto
	res, err := Run(kernels.ByID("C"), kernels.SVE, 256, &o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SanitizerElided || res.Collisions != nil {
		t.Fatalf("SVE run: elided=%v collisions=%v", res.SanitizerElided, res.Collisions)
	}
}
