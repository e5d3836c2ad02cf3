// Command uveasm moves kernel programs between their in-memory form and
// the canonical binary wire format (internal/wire).
//
// Usage:
//
//	uveasm -o corpus/                      # encode the full kernel corpus
//	uveasm -kernel C -variant uve -o saxpy.uve   # encode one program
//	uveasm -d saxpy.uve                    # disassemble a blob
//	uveasm -lint saxpy.uve                 # decode + static verification
//	uveasm -verify corpus/*.uve            # canonicality + verdict identity
//
// -d prints the program listing (labels, mnemonics), the stream descriptors
// reassembled from the ss.cfg µOp runs, and the embedded build context
// (argument registers and buffer extents). It also disassembles standalone
// descriptor blobs (magic "UVED").
//
// -lint re-runs the static verifier over the decoded program using the
// blob's embedded context — the blob is self-contained, no kernel source
// needed — and prints diagnostics and the safety certificate.
//
// -verify is the corpus gate: for each <ID>-<VARIANT>-<size>.uve file it
// checks that re-encoding the decoded unit reproduces the file byte for
// byte, that rebuilding the kernel from source encodes to those same bytes,
// and that the decoded program earns lint verdicts identical to the
// original's.
//
// Exit status: 0 on success, 1 when -lint finds errors or -verify finds a
// mismatch, 2 on usage, build or decode failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/lint"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uveasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "encode: output .uve file (with -kernel) or corpus directory (without)")
	dis := fs.Bool("d", false, "disassemble the .uve blobs given as arguments")
	lintFlag := fs.Bool("lint", false, "decode and statically verify the .uve blobs given as arguments")
	verify := fs.Bool("verify", false, "verify canonicality and lint-verdict identity of corpus .uve blobs")
	kid := fs.String("kernel", "", "kernel ID or name (single-program -o mode)")
	variant := fs.String("variant", "uve", "variant for -kernel: uve, sve or neon")
	size := fs.Int("size", 0, "problem size for -kernel (0 = the corpus size)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *dis:
		return disassemble(fs.Args(), stdout, stderr)
	case *lintFlag:
		return lintBlobs(fs.Args(), stdout, stderr)
	case *verify:
		return verifyBlobs(fs.Args(), stdout, stderr)
	case *out != "" && *kid != "":
		return encodeOne(*kid, *variant, *size, *out, stdout, stderr)
	case *out != "":
		return encodeCorpus(*out, stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: uveasm -o <dir> | uveasm -kernel <ID> [-variant v] [-size N] -o <file> | uveasm -d|-lint|-verify <file>...")
	return 2
}

// buildEntry assembles one kernel/variant pair into a corpus entry.
func buildEntry(kid, variant string, size int) (*kernels.CorpusEntry, error) {
	k := kernels.ByID(kid)
	if k == nil {
		for _, c := range kernels.All {
			if c.Name == kid {
				k = c
				break
			}
		}
	}
	if k == nil {
		return nil, fmt.Errorf("unknown kernel %q (try uvesim -list)", kid)
	}
	var v kernels.Variant
	if err := v.UnmarshalText([]byte(strings.ToUpper(variant))); err != nil {
		return nil, err
	}
	if size <= 0 {
		size = kernels.CorpusSize
	}
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	inst := k.Build(h, v, size)
	if inst.Err != nil {
		return nil, fmt.Errorf("%s/%s n=%d: build: %w", k.ID, v, size, inst.Err)
	}
	return &kernels.CorpusEntry{Kernel: k, Variant: v, Size: size, Inst: inst, Extents: h.Mem.Extents()}, nil
}

func writeBlob(path string, e *kernels.CorpusEntry) (int, error) {
	b, err := wire.EncodeUnit(e.Unit())
	if err != nil {
		return 0, fmt.Errorf("%s: encode: %w", e.Name(), err)
	}
	return len(b), os.WriteFile(path, b, 0o644)
}

func encodeOne(kid, variant string, size int, out string, stdout, stderr io.Writer) int {
	e, err := buildEntry(kid, variant, size)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	n, err := writeBlob(out, e)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s: %d insts, %d bytes -> %s\n", e.Name(), e.Inst.Prog.Len(), n, out)
	return 0
}

func encodeCorpus(dir string, stdout, stderr io.Writer) int {
	entries, err := kernels.Corpus()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	total := 0
	for i := range entries {
		e := &entries[i]
		n, err := writeBlob(filepath.Join(dir, e.Name()+".uve"), e)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		total += n
	}
	fmt.Fprintf(stdout, "wrote %d programs (%d bytes) to %s\n", len(entries), total, dir)
	return 0
}

func disassemble(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "uveasm -d: no input files")
		return 2
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if bytes.HasPrefix(b, []byte(wire.MagicDescriptor)) {
			d, err := wire.DecodeDescriptor(b)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", f, err)
				return 2
			}
			fmt.Fprintf(stdout, "descriptor %s\n", d)
			continue
		}
		u, err := wire.DecodeUnit(b)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", f, err)
			return 2
		}
		fmt.Fprint(stdout, u.Prog.String())
		printStreams(stdout, u.Prog)
		printContext(stdout, u)
	}
	return 0
}

// printStreams reassembles each stream descriptor from its run of ss.cfg
// µOps (start part through end part) and prints the recovered pattern.
func printStreams(w io.Writer, p *program.Program) {
	open := map[int][]*isa.StreamCfgPart{}
	header := false
	for pc := range p.Insts {
		in := &p.Insts[pc]
		if in.Cfg == nil {
			continue
		}
		c := in.Cfg
		open[c.Stream] = append(open[c.Stream], c)
		if !c.End {
			continue
		}
		parts := open[c.Stream]
		delete(open, c.Stream)
		if !header {
			fmt.Fprintln(w, "streams:")
			header = true
		}
		d, err := isa.RebuildDescriptor(parts)
		if err != nil {
			fmt.Fprintf(w, "  u%d @%d: <broken config: %v>\n", c.Stream, pc, err)
			continue
		}
		fmt.Fprintf(w, "  u%d @%d: %s\n", c.Stream, pc, d)
	}
}

func printContext(w io.Writer, u *wire.Unit) {
	if len(u.IntArgs)+len(u.FPArgs)+len(u.Extents) == 0 {
		return
	}
	fmt.Fprintln(w, "context:")
	for _, a := range u.IntArgs {
		fmt.Fprintf(w, "  int  x%-2d = %#x\n", a.Reg, a.Val)
	}
	for _, a := range u.FPArgs {
		fmt.Fprintf(w, "  fp   f%-2d = %v (%s)\n", a.Reg, a.Val, a.Width)
	}
	for _, e := range u.Extents {
		fmt.Fprintf(w, "  extent [%#x, %#x) %d bytes\n", e.Base, e.Base+uint64(e.Size), e.Size)
	}
}

// lintOptions reconstitutes verification options from a blob's embedded
// context, making the blob self-contained for static verification.
func lintOptions(u *wire.Unit) *lint.Options {
	opts := &lint.Options{EntryIntVals: map[int]uint64{}}
	for _, a := range u.IntArgs {
		opts.EntryInt = append(opts.EntryInt, a.Reg)
		opts.EntryIntVals[a.Reg] = a.Val
	}
	for _, a := range u.FPArgs {
		opts.EntryFP = append(opts.EntryFP, a.Reg)
	}
	for _, e := range u.Extents {
		opts.Extents = append(opts.Extents, lint.Extent{Base: e.Base, Size: e.Size})
	}
	return opts
}

func lintBlobs(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "uveasm -lint: no input files")
		return 2
	}
	status := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		u, err := wire.DecodeUnit(b)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", f, err)
			return 2
		}
		diags, deps := lint.Analyze(u.Prog, lintOptions(u))
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%s\n", u.Prog.Name, d)
		}
		c := lint.Certify(diags, deps)
		fmt.Fprintf(stdout, "%s: certificate: safe=%v collision-free=%v (%d pairs: %d disjoint, %d ordered, %d unknown, %d hazard)\n",
			u.Prog.Name, c.Safe, c.CollisionFree, c.Pairs, c.Disjoint, c.Ordered, c.Unknown, c.Hazard)
		if lint.HasErrors(diags) {
			status = 1
		}
	}
	return status
}

// parseCorpusName splits a corpus file stem <ID>-<VARIANT>-<size> back
// into its build parameters.
func parseCorpusName(path string) (kid, variant string, size int, err error) {
	stem := strings.TrimSuffix(filepath.Base(path), ".uve")
	parts := strings.Split(stem, "-")
	if len(parts) < 3 {
		return "", "", 0, fmt.Errorf("%s: not a corpus blob name (<ID>-<VARIANT>-<size>.uve)", path)
	}
	size, err = strconv.Atoi(parts[len(parts)-1])
	if err != nil {
		return "", "", 0, fmt.Errorf("%s: bad size in corpus blob name: %w", path, err)
	}
	return strings.Join(parts[:len(parts)-2], "-"), parts[len(parts)-2], size, nil
}

func verifyBlobs(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "uveasm -verify: no input files")
		return 2
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		u, err := wire.DecodeUnit(b)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", f, err)
			return 2
		}
		reenc, err := wire.EncodeUnit(u)
		if err != nil {
			fmt.Fprintf(stderr, "%s: re-encode: %v\n", f, err)
			return 1
		}
		if !bytes.Equal(reenc, b) {
			fmt.Fprintf(stderr, "%s: re-encoding differs from the file (non-canonical blob)\n", f)
			return 1
		}
		kid, variant, size, err := parseCorpusName(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		e, err := buildEntry(kid, variant, size)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		rebuilt, err := wire.EncodeUnit(e.Unit())
		if err != nil {
			fmt.Fprintf(stderr, "%s: encode rebuilt kernel: %v\n", f, err)
			return 1
		}
		if !bytes.Equal(rebuilt, b) {
			fmt.Fprintf(stderr, "%s: blob differs from a fresh build of %s\n", f, e.Name())
			return 1
		}
		diags, deps := e.Inst.Relint(u.Prog)
		if !reflect.DeepEqual(diags, e.Inst.Diags) || !reflect.DeepEqual(deps, e.Inst.Deps) {
			fmt.Fprintf(stderr, "%s: decoded program earns different lint verdicts than the original\n", f)
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok (%d bytes, canonical, verdicts identical)\n", f, len(b))
	}
	return 0
}
