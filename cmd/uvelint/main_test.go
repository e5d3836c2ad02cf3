package main

// Golden-file pins of uvelint's output. The -json report's field names and
// shapes are a stable machine-readable surface (scripts/check.sh pipes them
// through jsonvalid; downstream tooling parses them), and the -all -deps
// -cost text pins every diagnostic, dependence verdict, certificate and
// cost estimate of every kernel program. Regenerate with `go test ./cmd/uvelint -update` after an
// intentional schema or analysis change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/kernels"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestJSONGolden(t *testing.T) {
	k := kernels.ByID("C") // SAXPY: three streams, pure affine, fully exact
	if k == nil {
		t.Fatal("kernel C not registered")
	}
	const size = 512
	rep, _, err := buildReport(k, kernels.UVE, size, true)
	if err != nil {
		t.Fatal(err)
	}

	doc := report.New("uvelint")
	doc.Lint = &report.Lint{Programs: []report.Program{rep}}
	out, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "saxpy_uve_cost.json", out)
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s\n-- got --\n%s\n-- want --\n%s\n(regenerate with -update after an intentional change)",
			golden, got, want)
	}
}

// TestAllKernelsGolden pins the text of `uvelint -all -deps -cost`: every
// kernel in every variant at its default size.
func TestAllKernelsGolden(t *testing.T) {
	variants, err := cliflags.Variants("all")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, k := range kernels.All {
		for _, v := range variants {
			rep, inst, err := buildReport(k, v, k.DefaultSize, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", k.ID, v, err)
			}
			writeText(&buf, programName(k, v, k.DefaultSize), rep, inst, true)
		}
	}
	checkGolden(t, "all_deps_cost.txt", buf.Bytes())
}

// TestJSONReportShape guards the invariants the golden file alone cannot:
// every program in the full sweep produces valid JSON with the required
// fields, and clean programs carry a cost estimate when requested.
func TestJSONReportShape(t *testing.T) {
	for _, k := range kernels.All {
		rep, _, err := buildReport(k, kernels.UVE, bench.SizeFor(k, &bench.Options{Scale: 64}), true)
		if err != nil {
			t.Fatalf("%s: %v", k.ID, err)
		}
		if rep.Kernel != k.ID || rep.Variant != "UVE" || rep.Insts <= 0 {
			t.Errorf("%s: malformed report %+v", k.ID, rep)
		}
		if rep.Diags == nil {
			t.Errorf("%s: diags must marshal as [], not null", k.ID)
		}
		if rep.Clean && rep.Cost == nil {
			t.Errorf("%s: clean program missing cost estimate", k.ID)
		}
		if rep.Certificate.Pairs != rep.Certificate.Disjoint+rep.Certificate.Ordered+
			rep.Certificate.Unknown+rep.Certificate.Hazard {
			t.Errorf("%s: certificate counts do not add up: %+v", k.ID, rep.Certificate)
		}
		if rep.Certificate.CollisionFree && !rep.Certificate.Safe {
			t.Errorf("%s: collision-free but not safe: %+v", k.ID, rep.Certificate)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal: %v", k.ID, err)
		}
		if !json.Valid(b) {
			t.Fatalf("%s: invalid JSON", k.ID)
		}
	}
}
