package serve

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/wire"
)

// fingerprint is bench.FingerprintJob of a fresh benchJob of spec, built
// with no memo.
func fingerprint(t *testing.T, s *Server, spec JobSpec) wire.Hash {
	t.Helper()
	bj, err := s.benchJob(spec)
	if err != nil {
		t.Fatalf("benchJob(%+v): %v", spec, err)
	}
	if spec.Trace {
		bj.Opts.Trace = newProgress()
	}
	key, err := bench.FingerprintJob(bj)
	if err != nil {
		t.Fatalf("FingerprintJob(%+v): %v", spec, err)
	}
	return key
}

// prepareKey prepares spec and returns its key and how many fingerprint
// builds that took.
func prepareKey(t *testing.T, s *Server, spec JobSpec) (wire.Hash, int64) {
	t.Helper()
	before := s.builds.Load()
	p, err := s.prepare(spec)
	if err != nil {
		t.Fatalf("prepare(%+v): %v", spec, err)
	}
	return p.key, s.builds.Load() - before
}

// TestFingerprintMemo prepares every kernel × variant × fidelity × sanitize
// mode, traced where the fidelity records traces, at the benchmark's
// -scale 4 sizes. The first prepare builds once and keys the spec as
// FingerprintJob does; a second prepare, and one that differs only in
// TimeoutMS, answer the same key from the memo.
func TestFingerprintMemo(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	for _, k := range kernels.All {
		size := bench.SizeFor(k, &bench.Options{Scale: 4})
		for _, v := range []string{"uve", "sve", "neon"} {
			for _, fid := range []string{"cycle", "functional"} {
				for _, san := range []string{"off", "on", "auto"} {
					for _, traced := range []bool{false, true} {
						if traced && fid == "functional" {
							continue
						}
						spec := JobSpec{Kernel: k.ID, Variant: v, Size: size, Fidelity: fid, Sanitize: san, Trace: traced}
						want := fingerprint(t, s, spec)
						if key, builds := prepareKey(t, s, spec); key != want || builds != 1 {
							t.Fatalf("%+v: first prepare gave %x in %d builds, want %x in 1", spec, key[:8], builds, want[:8])
						}
						if key, builds := prepareKey(t, s, spec); key != want || builds != 0 {
							t.Fatalf("%+v: second prepare gave %x in %d builds, want %x in 0", spec, key[:8], builds, want[:8])
						}
						spec.TimeoutMS = 5000
						if key, builds := prepareKey(t, s, spec); key != want || builds != 0 {
							t.Fatalf("%+v: prepare gave %x in %d builds, want the untimed entry %x in 0", spec, key[:8], builds, want[:8])
						}
					}
				}
			}
		}
	}
}

// TestFingerprintMemoAliases: a kernel's name and ID, and size 0 and the
// kernel's DefaultSize, are distinct entries with equal keys.
func TestFingerprintMemoAliases(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	for _, id := range []string{"A", "C", "K", "S"} {
		k := kernels.ByID(id)
		byID, _ := prepareKey(t, s, JobSpec{Kernel: k.ID, Variant: "uve"})
		byName, _ := prepareKey(t, s, JobSpec{Kernel: k.Name, Variant: "uve"})
		sized, _ := prepareKey(t, s, JobSpec{Kernel: k.ID, Variant: "uve", Size: k.DefaultSize})
		if byName != byID || sized != byID {
			t.Errorf("%s: ID %x, name %x, DefaultSize %x, want equal keys", id, byID[:8], byName[:8], sized[:8])
		}
	}
}

// TestFingerprintMemoTraced: each prepare of a traced spec gets its own
// progress recorder, attached to its job, under one key.
func TestFingerprintMemoTraced(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	spec := JobSpec{Kernel: "C", Variant: "uve", Size: 4096, Trace: true}
	p1, err := s.prepare(spec)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	p2, err := s.prepare(spec)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p1.key != p2.key {
		t.Errorf("keys %x and %x, want equal", p1.key[:8], p2.key[:8])
	}
	if p1.prog == nil || p1.prog == p2.prog {
		t.Errorf("progress recorders %p and %p, want two distinct ones", p1.prog, p2.prog)
	}
	if p1.job.Opts.Trace != p1.prog || p2.job.Opts.Trace != p2.prog {
		t.Errorf("a job does not run with its own progress recorder")
	}
}

// TestFingerprintMemoBound prepares more distinct specs than the memo
// holds, from four goroutines at once. Every spec builds exactly once, the
// memo stays within maxFingerprints, every entry it keeps is its spec's
// fingerprint, and a cleared spec builds again.
func TestFingerprintMemoBound(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	const n, goroutines = maxFingerprints + 100, 4
	spec := func(i int) JobSpec { return JobSpec{Kernel: "C", Variant: "uve", Size: 16 + i} }
	keys := make([]wire.Hash, n)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				p, err := s.prepare(spec(i))
				if err != nil {
					errs <- fmt.Errorf("prepare(%+v): %w", spec(i), err)
					return
				}
				keys[i] = p.key
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.builds.Load(); got != n {
		t.Fatalf("%d builds for %d distinct specs, want %d", got, n, n)
	}

	s.fpMu.Lock()
	kept := maps.Clone(s.fingerprints)
	s.fpMu.Unlock()
	if len(kept) == 0 || len(kept) > maxFingerprints {
		t.Fatalf("memo holds %d entries, want 1 to %d", len(kept), maxFingerprints)
	}
	for sp, key := range kept {
		if want := fingerprint(t, s, sp); key != want {
			t.Errorf("%+v: memo holds %x, want %x", sp, key[:8], want[:8])
		}
		if again, builds := prepareKey(t, s, sp); again != key || builds != 0 {
			t.Errorf("%+v: kept entry answered %x in %d builds, want %x in 0", sp, again[:8], builds, key[:8])
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := kept[spec(i)]; !ok {
			if key, builds := prepareKey(t, s, spec(i)); key != keys[i] || builds != 1 {
				t.Errorf("%+v: cleared entry answered %x in %d builds, want %x in 1", spec(i), key[:8], builds, keys[i][:8])
			}
			break
		}
	}
}

// TestWarmPrepareAllocs pins the memo's saving: a spec the memo holds is
// validated and keyed without building its kernel.
func TestWarmPrepareAllocs(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	spec := JobSpec{Kernel: "C", Variant: "uve", Size: 4096}
	if _, err := s.prepare(spec); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.prepare(spec); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	})
	if allocs > 4 {
		t.Errorf("a warm prepare makes %.0f allocations, want at most 4", allocs)
	}
}
