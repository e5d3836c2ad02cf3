package bench

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// optionMutations moves each sim.Options axis that changes what a
// simulation computes or measures away from the Table I default. Both job
// identities — the in-process memo key and the store fingerprint — must
// separate every one of them from the default.
var optionMutations = []struct {
	name string
	mut  func(o *sim.Options)
}{
	{"Core", func(o *sim.Options) { o.Core.ROBSize++ }},
	{"Eng", func(o *sim.Options) { o.Eng.FIFODepth++ }},
	{"Eng.ForceLevel", func(o *sim.Options) { lvl := arch.LevelL2; o.Eng.ForceLevel = &lvl }},
	{"Hier.Prefetchers", func(o *sim.Options) { o.Hier.Prefetchers = false }},
	{"Fidelity", func(o *sim.Options) { o.Fidelity = sim.Functional }},
	{"SkipCheck", func(o *sim.Options) { o.SkipCheck = true }},
	{"Sanitize", func(o *sim.Options) { o.Sanitize = sim.SanitizeOn }},
	{"SanitizeAuto", func(o *sim.Options) { o.Sanitize = sim.SanitizeAuto }},
	{"Trace", func(o *sim.Options) { o.Trace = trace.NewCollector(8, 0) }},
	{"Faults", func(o *sim.Options) { p := fault.DefaultPlan(3); o.Faults = &p }},
	{"Watchdog", func(o *sim.Options) { o.Watchdog = 12345 }},
	{"MaxCycles", func(o *sim.Options) { o.MaxCycles = 99999 }},
	{"HashMem", func(o *sim.Options) { o.HashMem = true }},
}

// optJob is a UVE job for kernel A under the default options as mut
// leaves them.
func optJob(mut func(o *sim.Options)) Job {
	o := sim.DefaultOptions(kernels.UVE)
	mut(&o)
	return Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96, Opts: &o}
}

// TestBenchMemoKeyCoversOptions: every result-shaping Options axis
// separates memo keys, equal pointees behind distinct pointers share one,
// and the trace recorder separates traced runs by identity.
func TestBenchMemoKeyCoversOptions(t *testing.T) {
	ref := keyOf(optJob(func(*sim.Options) {}))
	for _, m := range optionMutations {
		if keyOf(optJob(m.mut)) == ref {
			t.Errorf("Options.%s does not separate memo keys", m.name)
		}
	}

	plan := func(o *sim.Options) { p := fault.DefaultPlan(3); o.Faults = &p }
	if keyOf(optJob(plan)) != keyOf(optJob(plan)) {
		t.Error("equal fault plans behind different pointers got different keys")
	}
	level := func(o *sim.Options) { lvl := arch.LevelL1; o.Eng.ForceLevel = &lvl }
	if keyOf(optJob(level)) != keyOf(optJob(level)) {
		t.Error("equal forced levels behind different pointers got different keys")
	}
	traced := func(o *sim.Options) { o.Trace = trace.NewCollector(8, 0) }
	if keyOf(optJob(traced)) == keyOf(optJob(traced)) {
		t.Error("runs traced into different recorders share a memo key")
	}
}

// TestFingerprintJobStable: the fingerprint is a pure function of the
// job's content — equal jobs hash equal across calls.
func TestFingerprintJobStable(t *testing.T) {
	j := Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96}
	h1, err := FingerprintJob(j)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := FingerprintJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("same job fingerprinted differently across calls")
	}
}

// TestFingerprintJobSeparates: kernel, variant, size and every
// result-shaping config axis move the fingerprint.
func TestFingerprintJobSeparates(t *testing.T) {
	h0, err := FingerprintJob(Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96})
	if err != nil {
		t.Fatal(err)
	}
	separates := func(name string, j Job) {
		t.Helper()
		h, err := FingerprintJob(j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
	separates("kernel", Job{Kernel: kernels.ByID("C"), Variant: kernels.UVE, Size: 96})
	separates("variant", Job{Kernel: kernels.ByID("A"), Variant: kernels.SVE, Size: 96})
	separates("size", Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 128})
	for _, m := range optionMutations {
		separates("Options."+m.name, optJob(m.mut))
	}

	// Trace identity reduces to presence: two different collectors are the
	// same fingerprint (unlike the in-process memo key, which must keep
	// per-collector runs separate).
	ta, err := FingerprintJob(optJob(func(o *sim.Options) { o.Trace = trace.NewCollector(16, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := FingerprintJob(optJob(func(o *sim.Options) { o.Trace = trace.NewCollector(32, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Error("trace recorder identity leaked into the fingerprint")
	}
}

// TestFingerprintJobDefaultSize: Size 0 fingerprints identically to the
// kernel's DefaultSize, matching what execution would run.
func TestFingerprintJobDefaultSize(t *testing.T) {
	k := kernels.ByID("A")
	h0, err := FingerprintJob(Job{Kernel: k, Variant: kernels.UVE})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := FingerprintJob(Job{Kernel: k, Variant: kernels.UVE, Size: k.DefaultSize})
	if err != nil {
		t.Fatal(err)
	}
	if h0 != hd {
		t.Fatal("Size 0 and DefaultSize fingerprint differently")
	}
}

// TestFingerprintJobCoversImage: flipping one byte of any allocated
// extent's initial content after the build moves the fingerprint, so a
// kernel whose input data changes misses the store. The kernel ID moves it
// too, since the stored report names it.
func TestFingerprintJobCoversImage(t *testing.T) {
	k := kernels.ByID("Q")
	const size = 64
	job := func(key string, flip int) Job {
		return Job{Key: key, Variant: kernels.UVE, Size: size, Build: func(h *mem.Hierarchy) *kernels.Instance {
			inst := k.Build(h, kernels.UVE, size)
			if flip >= 0 {
				e := h.Mem.Extents()[flip]
				h.Mem.Write(e.Base, arch.W1, ^h.Mem.Read(e.Base, arch.W1))
			}
			return inst
		}}
	}
	h0, err := FingerprintJob(job(k.ID, -1))
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.NewHierarchy(sim.DefaultOptions(kernels.UVE).Hier)
	k.Build(hier, kernels.UVE, size)
	n := len(hier.Mem.Extents())
	if n == 0 {
		t.Fatal("kernel allocated no extents")
	}
	for i := 0; i < n; i++ {
		h, err := FingerprintJob(job(k.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		if h == h0 {
			t.Errorf("flipping a byte of extent %d did not move the fingerprint", i)
		}
	}
	if h, err := FingerprintJob(job("renamed", -1)); err != nil || h == h0 {
		t.Errorf("the kernel ID did not move the fingerprint (err %v)", err)
	}
}
