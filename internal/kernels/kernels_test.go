package kernels_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// testSizes gives each kernel a small correctness-test size.
var testSizes = map[string]int{
	"A": 1000, // memcpy elements
	"B": 700,  // stream elements
	"C": 777,  // saxpy elements
	"D": 32,   // gemm N
	"E": 16,   // 3mm N
	"F": 48,   // mvt N
	"G": 32,   // gemver N
	"H": 40,   // trisolv N
	"I": 500,  // jacobi-1d N
	"J": 24,   // jacobi-2d N
	"K": 8,    // irsmk grid edge
	"L": 64,   // haccmk particles
	"M": 48,   // knn points
	"N": 16,   // covariance N
	"O": 24,   // mamr N
	"P": 24,
	"Q": 24,
	"R": 20, // seidel N
	"S": 20, // floyd-warshall N
}

// TestAllKernelsAllVariants runs every registered benchmark on every ISA
// variant at a small size and validates outputs against the pure-Go
// reference.
func TestAllKernelsAllVariants(t *testing.T) {
	for _, k := range kernels.All {
		k := k
		size := testSizes[k.ID]
		if size == 0 {
			size = 32
		}
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			v := v
			t.Run(k.ID+"-"+k.Name+"/"+v.String(), func(t *testing.T) {
				t.Parallel()
				res, err := sim.Run(k, v, size, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles <= 0 || res.Committed == 0 {
					t.Fatalf("degenerate run: %+v", res)
				}
			})
		}
	}
}

// TestRegistryMetadata sanity-checks the Fig 8 table metadata.
func TestRegistryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range kernels.All {
		if seen[k.ID] {
			t.Errorf("duplicate kernel ID %s", k.ID)
		}
		seen[k.ID] = true
		if k.Streams <= 0 || k.Loops <= 0 || k.Pattern == "" || k.DefaultSize <= 0 {
			t.Errorf("kernel %s has incomplete metadata: %+v", k.ID, k)
		}
		if k.MaxSize < k.DefaultSize {
			t.Errorf("kernel %s: MaxSize %d below DefaultSize %d", k.ID, k.MaxSize, k.DefaultSize)
		}
		if kernels.ByID(k.ID) != k {
			t.Errorf("ByID(%s) lookup failed", k.ID)
		}
	}
}

// TestUVEBeatsBaselinesOnInstructionCount checks the Fig 8.A direction for
// every vectorized kernel: UVE commits fewer instructions than SVE, which
// commits fewer than NEON.
func TestUVEBeatsBaselinesOnInstructionCount(t *testing.T) {
	for _, k := range kernels.All {
		if !k.SVEVectorized {
			continue
		}
		k := k
		t.Run(k.ID+"-"+k.Name, func(t *testing.T) {
			t.Parallel()
			size := testSizes[k.ID]
			uve := sim.MustRun(k, kernels.UVE, size, nil)
			sve := sim.MustRun(k, kernels.SVE, size, nil)
			neon := sim.MustRun(k, kernels.NEON, size, nil)
			if uve.Committed >= sve.Committed {
				t.Errorf("UVE committed %d ≥ SVE %d", uve.Committed, sve.Committed)
			}
			if sve.Committed >= neon.Committed {
				t.Errorf("SVE committed %d ≥ NEON %d", sve.Committed, neon.Committed)
			}
		})
	}
}

// TestNewInstanceCertifiesLikeBuild: a kernel's program re-wrapped with
// NewInstance — as the public Machine wraps the programs it runs — over the
// same memory and arguments earns the certificate the kernel build did.
func TestNewInstanceCertifiesLikeBuild(t *testing.T) {
	for _, k := range kernels.All {
		size := testSizes[k.ID]
		if size == 0 {
			size = 32
		}
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		built := k.Build(h, kernels.UVE, size)
		if built.Err != nil {
			t.Fatalf("%s: %v", k.ID, built.Err)
		}
		wrapped := kernels.NewInstance(h.Mem, built.Prog, built.IntArgs, built.FPArgs)
		if got, want := wrapped.Certificate(), built.Certificate(); got != want {
			t.Errorf("%s-%s: NewInstance certificate %+v, kernel build %+v", k.ID, k.Name, got, want)
		}
		if len(wrapped.Diags) != len(built.Diags) {
			t.Errorf("%s-%s: NewInstance verified with %d diagnostics, kernel build %d", k.ID, k.Name, len(wrapped.Diags), len(built.Diags))
		}
	}
}
