package bench

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// smallOpts shrinks everything to its structural minimum so the whole
// harness is exercised quickly in tests.
func smallOpts() *Options { return &Options{Scale: 1000} }

func TestFig8ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	rows := Fig8(smallOpts())
	if len(rows) != len(kernels.All) {
		t.Fatalf("%d rows, want %d", len(rows), len(kernels.All))
	}
	for _, r := range rows {
		// Direction of the headline claims at any size: UVE commits fewer
		// instructions than both baselines.
		if r.InstReductionVs(kernels.SVE) <= 0 {
			t.Errorf("%s: UVE committed more instructions than SVE", r.Name)
		}
		if r.InstReductionVs(kernels.NEON) <= 0 {
			t.Errorf("%s: UVE committed more instructions than NEON", r.Name)
		}
		if r.Cycles[kernels.UVE] <= 0 {
			t.Errorf("%s: no cycles measured", r.Name)
		}
	}
	if g := GeoMeanSpeedup(rows, kernels.NEON, false); g <= 1 {
		t.Errorf("geomean vs NEON = %.2f, want > 1", g)
	}
	out := FormatFig8(rows)
	for _, frag := range []string{"SAXPY", "geomean", "paper: 2.4x"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatFig8 missing %q", frag)
		}
	}
}

func TestFig10DepthMonotoneAtLowDepths(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	pts := Fig10(&Options{Scale: 16})
	// Shallower FIFOs can never help, and at these sizes at least one
	// kernel must be measurably hurt by depth 2 (the Fig 10 shape).
	hurt := false
	for _, p := range pts {
		if p.Param != "depth=2" {
			continue
		}
		if p.Speedup > 1.001 {
			t.Errorf("%s: depth=2 speedup %.3f > 1", p.Kernel, p.Speedup)
		}
		if p.Speedup < 0.95 {
			hurt = true
		}
	}
	if !hurt {
		t.Error("no kernel showed FIFO-depth sensitivity")
	}
}

func TestSweepFormatting(t *testing.T) {
	pts := []SweepPoint{
		{Kernel: "GEMM", Variant: kernels.UVE, Param: "a", Cycles: 10, Speedup: 1},
		{Kernel: "GEMM", Variant: kernels.UVE, Param: "b", Cycles: 5, Speedup: 2},
	}
	out := FormatSweep("title", pts)
	for _, frag := range []string{"title", "GEMM/UVE", "a:", "b:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatSweep missing %q in %q", frag, out)
		}
	}
}

func TestStaticReports(t *testing.T) {
	tbl := FormatFig8Table()
	if !strings.Contains(tbl, "MAMR-Ind") || !strings.Contains(tbl, "indirect") {
		t.Error("Fig 8 table incomplete")
	}
	t1 := FormatTable1()
	for _, frag := range []string{"ROB 128", "512-bit", "AMPM"} {
		if !strings.Contains(t1, frag) {
			t.Errorf("Table 1 missing %q", frag)
		}
	}
	hw := FormatHW()
	if !strings.Contains(hw, "14080") || !strings.Contains(hw, "160") {
		t.Errorf("storage accounting unexpected: %s", hw)
	}
}

// TestSizeForRespectsConstraints runs every variant of every kernel at
// quantized sizes from below and across the first steps of its grid, on
// the functional tier: each must build and pass its output check.
func TestSizeForRespectsConstraints(t *testing.T) {
	for _, k := range kernels.All {
		step := max(k.SizeStep, 1)
		sizes := map[int]bool{SizeFor(k, &Options{Scale: 1 << 20}): true}
		for _, n := range []int{-1, k.MinSize + 1, k.MinSize + step + 1, k.MinSize + 2*step + 3} {
			sizes[QuantizeSize(k, n)] = true
		}
		for n := range sizes {
			for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
				o := sim.DefaultOptions(v)
				o.Fidelity = sim.Functional
				if _, err := sim.Run(k, v, n, &o); err != nil {
					t.Errorf("quantized size %d: %v", n, err)
				}
			}
		}
	}
}

func TestStorageFootprintScales(t *testing.T) {
	small := engine.DefaultConfig()
	small.LogStreams = 8
	st, _, sf := engine.StorageFootprint(small)
	bt, _, bf := engine.StorageFootprint(engine.DefaultConfig())
	if st >= bt || sf >= bf {
		t.Error("reduced configuration must shrink the footprint")
	}
}
