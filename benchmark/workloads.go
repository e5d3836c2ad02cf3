package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

var workloadNames = []string{"paper-figures", "serve-warm"}

// workload is a set-up workload: the jobs of one pass in canonical order,
// plus what running them needs.
type workload struct {
	name string
	jobs []*job
	// perPassRunner gives every pass a fresh bench.Runner.
	perPassRunner bool
	// minPasses is how many passes a timed window runs at least, however
	// early its deadline passes. It fixes the job count that the tail
	// percentile and the RSS median are taken over.
	minPasses int
	// rssPID is the process whose RSS the window samples (0: this one).
	rssPID int
	// close stops whatever set-up started (nil when nothing).
	close func()
	// serve holds serve-warm's daemon and request specs.
	serve *serveSetup
}

func (w *workload) all() []int {
	idx := make([]int, len(w.jobs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func (w *workload) cycleJobs() []int {
	var idx []int
	for i, j := range w.jobs {
		if j.cycle {
			idx = append(idx, i)
		}
	}
	return idx
}

func (w *workload) shutdown() {
	if w.close != nil {
		w.close()
	}
}

// fixedJobs is the job count every timed window reaches: minPasses passes.
func (w *workload) fixedJobs() int { return len(w.jobs) * max(1, w.minPasses) }

// tailPerMille is the percentile job_tail_ms reports: the highest one that
// leaves at least ten of fixedJobs samples beyond it.
func (w *workload) tailPerMille() int {
	pm, _ := tailPerMille(w.fixedJobs())
	return pm
}

// setUp builds a workload's job list and everything its jobs check against.
func setUp(c *config) (*workload, error) {
	switch c.workload {
	case "paper-figures":
		return paperFigures(c)
	case "serve-warm":
		return serveWarm(c)
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

func kernelBuild(k *kernels.Kernel, v kernels.Variant, size int) buildFunc {
	return func(h *mem.Hierarchy) *kernels.Instance { return k.Build(h, v, size) }
}

// paperFigures lists the simulations `uvebench -exp all` runs: the Fig 8
// matrix, Fig 8.E, Figs 9–11, the SPM sweep, the ablations and the stall
// pass, with their machine configurations. A pass submits them all to one
// bench.Runner, which shares the duplicated baseline cells. The pass also
// runs the verify jobs at the same scale, so the functional tier, the cost
// model and the sanitizer are measured too, and a slice of the fault
// campaign, so the injector and NACK-starved runs are.
func paperFigures(c *config) (*workload, error) {
	o := &bench.Options{Scale: c.scale(2)}
	w := &workload{name: "paper-figures", perPassRunner: true}
	add := func(label, key string, v kernels.Variant, size int, opts sim.Options, traced bool, b buildFunc) {
		w.jobs = append(w.jobs, &job{id: label, cycle: true, run: func(x *exec) (result, error) {
			opts := opts.Clone()
			if traced {
				opts.Trace = trace.NewCollector(0, 0)
			}
			res, lat, err := x.runBench(key, v, size, &opts, b)
			if err != nil {
				return result{}, err
			}
			if res.Cycles <= 0 {
				return result{}, fmt.Errorf("%s: zero cycle count", label)
			}
			return result{out: outcome{res.Cycles, res.Committed, res.MemHash}, latency: lat, res: res}, nil
		}})
	}
	cell := func(exp string, k *kernels.Kernel, v kernels.Variant, param string, opts *sim.Options, traced bool) {
		size := bench.SizeFor(k, o)
		label := fmt.Sprintf("%s/%s/%s", exp, k.ID, v)
		if param != "" {
			label += "/" + param
		}
		oo := sim.DefaultOptions(v)
		if opts != nil {
			oo = *opts
		}
		add(label, k.ID, v, size, oo, traced, kernelBuild(k, v, size))
	}

	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			cell("fig8", k, v, "", nil, false)
		}
	}
	gsize := bench.SizeFor(kernels.ByID("D"), o)
	for _, f := range []int{1, 2, 4, 8} {
		key := fmt.Sprintf("fig8e-gemm-unroll%d", f)
		add("fig8e/"+key, key, kernels.UVE, gsize, sim.DefaultOptions(kernels.UVE), false,
			func(h *mem.Hierarchy) *kernels.Instance { return kernels.UnrolledGemmUVE(h, gsize, f) })
	}
	sens := []string{"D", "J", "B", "O"}
	for _, id := range sens {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE} {
			for _, pr := range []int{48, 64, 96} {
				opts := sim.DefaultOptions(v)
				opts.Core.VecPRF = pr
				cell("fig9", kernels.ByID(id), v, fmt.Sprintf("prf=%d", pr), &opts, false)
			}
		}
	}
	for _, id := range append([]string{"E"}, sens...) {
		for _, d := range []int{2, 4, 8, 12} {
			opts := sim.DefaultOptions(kernels.UVE)
			opts.Eng.FIFODepth = d
			cell("fig10", kernels.ByID(id), kernels.UVE, fmt.Sprintf("depth=%d", d), &opts, false)
		}
	}
	for _, id := range sens {
		for _, lvl := range []arch.CacheLevel{arch.LevelL1, arch.LevelL2, arch.LevelMem} {
			opts := sim.DefaultOptions(kernels.UVE)
			opts.Eng.ForceLevel = &lvl
			cell("fig11", kernels.ByID(id), kernels.UVE, lvl.String(), &opts, false)
		}
	}
	for _, id := range sens {
		for _, m := range []int{2, 4, 8} {
			opts := sim.DefaultOptions(kernels.UVE)
			opts.Eng.NumModules = m
			cell("spm", kernels.ByID(id), kernels.UVE, fmt.Sprintf("spm=%d", m), &opts, false)
		}
	}
	for _, id := range []string{"C", "D", "B", "F"} {
		k := kernels.ByID(id)
		noPf := sim.DefaultOptions(kernels.SVE)
		noPf.Hier.Prefetchers = false
		onePort := sim.DefaultOptions(kernels.UVE)
		onePort.Eng.LoadPorts = 1
		cell("ablate", k, kernels.SVE, "", nil, false)
		cell("ablate", k, kernels.SVE, "no-prefetch", &noPf, false)
		cell("ablate", k, kernels.UVE, "", nil, false)
		cell("ablate", k, kernels.UVE, "1-load-port", &onePort, false)
	}
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE} {
			cell("stalls", k, v, "", nil, true)
		}
	}
	w.jobs = append(w.jobs, verifyJobs(o)...)
	faults, err := faultJobs(c)
	if err != nil {
		return nil, err
	}
	w.jobs = append(w.jobs, faults...)
	return w, nil
}

// campaignMaxCycles bounds a faulted run, as `uvebench -exp faults` does, so
// an injection livelock ends as a watchdog error instead of a hang.
const campaignMaxCycles = 100_000_000

// starvedSkip names the cell left out of the starved plan: Covariance on UVE
// took 1.3–1.8 s per starved run, which would make it the pass's longest job
// by far, and whichever worker drew it last would leave the other idle.
const starvedSkip = "N/UVE"

// faultJobs is a fault campaign over every kernel on UVE and SVE at -scale 8:
// one run under the default fault plan and one under a NACK-starved plan per
// cell, with plan seeds drawn from the workload seed. Starved runs take
// several times the fault-free cycles, mostly idle, so event skipping, NACK
// backoff and the injector dominate them. Set-up runs the fault-free oracle;
// every faulted job must reproduce its final memory hash. The jobs ride in
// paper-figures rather than forming a workload of their own: as a workload
// (eight plan seeds per cell) its throughput spread 25–27% over sets of ten
// runs, against a 25% bound.
func faultJobs(c *config) ([]*job, error) {
	o := &bench.Options{Scale: c.scale(8)}
	starved, err := fault.ParsePlan("nack=900,nack-backoff=200")
	if err != nil {
		return nil, err
	}
	type cellT struct {
		k    *kernels.Kernel
		v    kernels.Variant
		size int
	}
	var cells []cellT
	var oracle []bench.Job
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE} {
			size := bench.SizeFor(k, o)
			cells = append(cells, cellT{k, v, size})
			opts := sim.DefaultOptions(v)
			opts.HashMem = true
			oracle = append(oracle, bench.Job{Kernel: k, Variant: v, Size: size, Opts: &opts})
		}
	}
	base, err := bench.NewRunner(workers).RunAll(oracle)
	if err != nil {
		return nil, fmt.Errorf("fault-free oracle: %w", err)
	}

	families := []struct {
		name string
		plan fault.Plan
	}{{"default", fault.DefaultPlan(0)}, {"starved", starved}}
	rng := rand.New(rand.NewPCG(c.seed, 0xfa17))
	var jobs []*job
	for i, cl := range cells {
		cl, want := cl, base[i]
		for _, fam := range families {
			if fam.name == "starved" && fmt.Sprintf("%s/%s", cl.k.ID, cl.v) == starvedSkip {
				continue
			}
			plan := fam.plan
			plan.Seed = rng.Uint64()
			label := fmt.Sprintf("faults/%s/%s/%s/%#x", cl.k.ID, cl.v, fam.name, plan.Seed)
			jobs = append(jobs, &job{id: label, cycle: true, run: func(x *exec) (result, error) {
				opts := sim.DefaultOptions(cl.v)
				opts.HashMem = true
				opts.Faults = &plan
				opts.MaxCycles = campaignMaxCycles
				res, lat, err := x.runBench(cl.k.ID, cl.v, cl.size, &opts, kernelBuild(cl.k, cl.v, cl.size))
				if err != nil {
					return result{}, err
				}
				if res.MemHash != want.MemHash {
					return result{}, fmt.Errorf("%s: final memory %#x differs from the fault-free run's %#x", label, res.MemHash, want.MemHash)
				}
				return result{out: outcome{res.Cycles, res.Committed, res.MemHash}, latency: lat, res: res, baseCycles: want.Cycles}, nil
			}})
		}
	}
	return jobs, nil
}

// verifyJobs is the kernel author's edit loop over every kernel × variant:
// build (lint and the absint prover), cost.Analyze, then a functional-tier
// run with the sanitizer on auto, the memory hash and the output check. An
// exact cost estimate must equal the simulated committed count. The jobs
// ride in paper-figures rather than forming a workload of their own: as a
// workload their throughput swung 20-30% between consecutive runs with the
// load of neighbouring machines, at paper scale and at -scale 4 alike.
func verifyJobs(o *bench.Options) []*job {
	var jobs []*job
	for _, k := range kernels.All {
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			k, v, size := k, v, bench.SizeFor(k, o)
			label := fmt.Sprintf("verify/%s/%s", k.ID, v)
			jobs = append(jobs, &job{id: label, run: func(x *exec) (result, error) {
				opts := sim.DefaultOptions(v)
				opts.Fidelity = sim.Functional
				opts.Sanitize = sim.SanitizeAuto
				opts.HashMem = true
				var est *cost.Estimate
				var cerr error
				root := x.tr.begin("sim.run", x.jobNo, -1)
				analyze := func(inst *kernels.Instance) {
					s := x.tr.begin("cost.analyze", x.jobNo, root)
					p := cost.DefaultParams(v.VecBytes())
					p.IntArgs = inst.IntArgs
					est, cerr = cost.Analyze(inst.Prog, p)
					x.tr.end(s)
				}
				t0 := time.Now()
				res, err := sim.RunBuiltContext(context.Background(), k.ID, v, size, &opts, x.build(root, kernelBuild(k, v, size), analyze))
				lat := time.Since(t0)
				x.tr.end(root)
				switch {
				case err != nil:
					return result{}, err
				case cerr != nil:
					return result{}, fmt.Errorf("%s: cost: %w", label, cerr)
				case est.Exact && est.Committed.Value() != res.Committed:
					return result{}, fmt.Errorf("%s: cost model predicts %d committed, simulated %d", label, est.Committed.Value(), res.Committed)
				}
				return result{out: outcome{0, res.Committed, res.MemHash}, latency: lat, res: res, costed: true, costExact: est.Exact}, nil
			}})
		}
	}
	return jobs
}
