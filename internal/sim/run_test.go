package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
)

// badKernel returns a kernel whose instance halts immediately but whose
// output check always fails — the only way to exercise Run's validation
// error path without a real modeling bug.
func badKernel() *kernels.Kernel {
	return &kernels.Kernel{
		ID: "ZZ", Name: "always-wrong", DefaultSize: 16,
		Build: func(h *mem.Hierarchy, v kernels.Variant, size int) *kernels.Instance {
			p := program.NewBuilder("always-wrong").I(isa.Halt()).MustBuild()
			return &kernels.Instance{Prog: p, Check: func() error { return errors.New("synthetic mismatch") }}
		},
	}
}

func TestRunRejectsNilKernel(t *testing.T) {
	if _, err := Run(nil, kernels.SVE, 16, nil); err == nil {
		t.Fatal("Run(nil kernel) must error, not panic")
	}
}

func TestRunRejectsNegativeSize(t *testing.T) {
	_, err := Run(badKernel(), kernels.SVE, -4, nil)
	if err == nil || !strings.Contains(err.Error(), "invalid size") {
		t.Fatalf("err = %v, want invalid-size error", err)
	}
}

func TestRunDefaultsZeroSize(t *testing.T) {
	k := badKernel()
	res, _ := Run(k, kernels.SVE, 0, nil)
	if res == nil || res.Size != k.DefaultSize {
		t.Fatalf("size-0 run should use DefaultSize %d, got %+v", k.DefaultSize, res)
	}
}

func TestRunReportsCheckFailure(t *testing.T) {
	res, err := Run(badKernel(), kernels.SVE, 16, nil)
	if err == nil || !strings.Contains(err.Error(), "output mismatch") {
		t.Fatalf("err = %v, want output-mismatch error", err)
	}
	if !strings.Contains(err.Error(), "always-wrong/SVE") {
		t.Errorf("error %q should name the kernel and variant", err)
	}
	if res == nil || res.Cycles <= 0 {
		t.Error("failed validation must still return the measured result")
	}
}

func TestRunSkipCheckSuppressesValidation(t *testing.T) {
	opts := DefaultOptions(kernels.SVE)
	opts.SkipCheck = true
	if _, err := Run(badKernel(), kernels.SVE, 16, &opts); err != nil {
		t.Fatalf("SkipCheck run errored: %v", err)
	}
}

func TestRunBuiltLabelsResult(t *testing.T) {
	res, err := RunBuiltContext(context.Background(), "custom-id", kernels.SVE, 8, nil, func(h *mem.Hierarchy) *kernels.Instance {
		p := program.NewBuilder("custom").I(isa.Halt()).MustBuild()
		return &kernels.Instance{Prog: p}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "custom-id" || res.Size != 8 {
		t.Errorf("result labeled %q n=%d, want custom-id n=8", res.Kernel, res.Size)
	}
}

func TestMustRunPanicsOnCheckFailure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRun must panic on validation failure")
		}
	}()
	MustRun(badKernel(), kernels.SVE, 16, nil)
}
