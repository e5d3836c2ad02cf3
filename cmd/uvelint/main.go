// Command uvelint statically verifies the evaluation kernels: it builds each
// requested kernel/variant pair against a fresh memory hierarchy and runs the
// internal/lint checker over the assembled program — stream lifecycle,
// descriptor footprint vs allocated buffers, register dataflow and CFG
// sanity — without simulating a single cycle.
//
// Usage:
//
//	uvelint -kernel C                 # lint SAXPY, all variants
//	uvelint -kernel C -variant uve    # one variant
//	uvelint -all                      # lint every kernel/variant pair
//	uvelint -all -deps                # also print classified dependence pairs
//	uvelint -all -max-footprint 4096  # cap footprint enumeration
//	uvelint -all -fidelity functional # lint + execute on the fast tier
//	uvelint -kernel C -cost           # static cost model: exact traffic + bounds
//	uvelint -all -cost -json          # machine-readable diagnostics + cost
//
// -fidelity functional additionally interprets every clean program on the
// functional tier and runs the kernel's output check — dynamic verification
// without simulating cycles.
//
// -deps prints every dependence pair the analyzer classified and the
// program's safety certificate. Store addresses come from the abstract-
// interpretation value-range prover (internal/absint): a single value
// resolves a store exactly, a finite interval can still prove it disjoint
// from a stream. Collision-free certificates let the simulator's
// SanitizeAuto mode elide runtime shadow tracking.
//
// -cost runs the internal/cost static model over each clean program and
// prints the per-stream traffic prediction and cycle lower bounds. -json
// replaces the text output with a JSON array holding one object per linted
// program (kernel, variant, size, diagnostics and, with -cost, the full
// estimate); field names are stable for downstream tooling.
//
// Exit status: 0 when every linted program is clean (warnings allowed),
// 1 when any program has lint errors, 2 on usage or build failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliflags"
	"repro/internal/cost"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sim"
)

// buildReport assembles, lints and (optionally) cost-analyzes one program
// into the shared versioned schema (internal/report). It is the shared
// core of the text and -json paths; the golden-file test pins its JSON
// rendering.
func buildReport(k *kernels.Kernel, v kernels.Variant, n int, withCost bool) (report.Program, *kernels.Instance, error) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	inst := k.Build(h, v, n)
	if inst.Err != nil && len(inst.Diags) == 0 {
		return report.Program{}, inst, fmt.Errorf("build failed: %w", inst.Err)
	}
	rep := report.Program{
		Kernel: k.ID, Name: k.Name, Variant: v.String(), Size: n,
		Insts: inst.Prog.Len(), Clean: !lint.HasErrors(inst.Diags),
		Diags:       []report.Diag{},
		Certificate: lint.Certify(inst.Diags, inst.Deps),
	}
	for _, d := range inst.Diags {
		rep.Diags = append(rep.Diags, report.Diag{
			PC: d.PC, Op: d.Op, Severity: d.Severity.String(), Message: d.Message,
		})
	}
	if withCost && rep.Clean {
		params := cost.DefaultParams(v.VecBytes())
		params.IntArgs = inst.IntArgs
		est, err := cost.Analyze(inst.Prog, params)
		if err != nil {
			return rep, inst, fmt.Errorf("cost analysis failed: %w", err)
		}
		rep.Cost = est
	}
	return rep, inst, nil
}

// programName labels one kernel/variant/size in the text output.
func programName(k *kernels.Kernel, v kernels.Variant, n int) string {
	return fmt.Sprintf("%s-%s/%s n=%d", k.ID, k.Name, v, n)
}

// writeText renders one program's text report: its diagnostics, then with
// deps its dependence pairs and safety certificate, then its cost estimate
// when buildReport made one (clean programs under -cost only).
func writeText(w io.Writer, name string, rep report.Program, inst *kernels.Instance, deps bool) {
	for _, d := range inst.Diags {
		fmt.Fprintf(w, "%s:%s\n", name, d)
	}
	if deps {
		for _, d := range inst.Deps {
			fmt.Fprintf(w, "%s: dep: %s\n", name, d)
		}
		c := rep.Certificate
		fmt.Fprintf(w, "%s: certificate: safe=%v collision-free=%v (%d pairs: %d disjoint, %d ordered, %d unknown, %d hazard)\n",
			name, c.Safe, c.CollisionFree, c.Pairs, c.Disjoint, c.Ordered, c.Unknown, c.Hazard)
	}
	if rep.Cost != nil {
		fmt.Fprintf(w, "%s: cost model:\n", name)
		fmt.Fprint(w, rep.Cost.Render())
	}
}

func main() {
	kid := flag.String("kernel", "", "kernel ID or name (see uvesim -list)")
	variant := flag.String("variant", "all", "variant: uve, sve, neon or all")
	size := flag.Int("size", 0, "problem size (0 = kernel default)")
	all := flag.Bool("all", false, "lint every kernel")
	verbose := flag.Bool("v", false, "print a line for clean programs too")
	deps := flag.Bool("deps", false, "print every classified stream dependence pair")
	costFlag := flag.Bool("cost", false, "run the static cost model (exact traffic prediction + cycle lower bounds)")
	jsonOut := flag.Bool("json", false, "emit one JSON object per program instead of text")
	maxFootprint := flag.Int64("max-footprint", 0,
		"cap per-stream address enumeration in elements (0 = default 2^21); longer streams degrade to hull-only footprints")
	fid := cliflags.AddFidelity(flag.CommandLine)
	flag.Parse()
	kernels.MaxFootprintElems = *maxFootprint

	fidelity, err := fid.Parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	variants, err := cliflags.Variants(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var targets []*kernels.Kernel
	if *all {
		targets = kernels.All
	} else if *kid != "" {
		k := lookup(*kid)
		if k == nil {
			fmt.Fprintf(os.Stderr, "unknown kernel %q (try uvesim -list)\n", *kid)
			os.Exit(2)
		}
		targets = []*kernels.Kernel{k}
	} else {
		fmt.Fprintln(os.Stderr, "usage: uvelint -kernel <ID|name> [-variant uve|sve|neon|all] [-size N], or uvelint -all")
		os.Exit(2)
	}

	status := 0
	var reports []report.Program
	for _, k := range targets {
		n := *size
		if n <= 0 {
			n = k.DefaultSize
		}
		for _, v := range variants {
			name := programName(k, v, n)
			rep, inst, err := buildReport(k, v, n, *costFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				status = max(status, 2)
				if inst.Err == nil {
					// Assembly succeeded; only the cost analysis failed.
					reports = append(reports, rep)
				}
				continue
			}
			if !*jsonOut {
				writeText(os.Stdout, name, rep, inst, *deps)
			}
			reports = append(reports, rep)
			if !rep.Clean {
				status = max(status, 1)
				continue
			}
			if fidelity == sim.Functional {
				// Dynamic verification rides the fast tier: interpret the
				// program and run the kernel's own output check — static
				// lint plus actual execution, still without a single
				// simulated cycle of the detailed machine.
				o := sim.DefaultOptions(v)
				o.Fidelity = sim.Functional
				if _, err := sim.Run(k, v, n, &o); err != nil {
					fmt.Fprintf(os.Stderr, "%s: functional execution failed: %v\n", name, err)
					status = max(status, 1)
					continue
				}
				if *verbose && !*jsonOut {
					fmt.Printf("%s: ok (%d insts, %d warnings, functional check passed)\n",
						name, inst.Prog.Len(), len(inst.Diags))
				}
				continue
			}
			if *verbose && !*jsonOut {
				fmt.Printf("%s: ok (%d insts, %d warnings)\n", name, inst.Prog.Len(), len(inst.Diags))
			}
		}
	}
	if *jsonOut {
		doc := report.New("uvelint")
		doc.Lint = &report.Lint{Programs: reports}
		b, err := doc.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(status)
}

// lookup resolves a kernel by Fig 8 letter or by name.
func lookup(id string) *kernels.Kernel {
	if k := kernels.ByID(id); k != nil {
		return k
	}
	for _, k := range kernels.All {
		if k.Name == id {
			return k
		}
	}
	return nil
}
