package main

import (
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layerPkgs are the repository packages the per-layer table reports a host
// share for. A sample whose innermost repository frame lies in any other
// repository package (or only in the benchmark itself) is charged to misc.
var layerPkgs = []string{
	"cpu", "engine", "mem", "descriptor", "isa", "fault", "funcsim", "kernels", "program",
	"lint", "absint", "cost", "sim", "bench", "wire", "store", "serve",
}

// stack is one sampled call stack with its weight, innermost frame first.
type stack struct {
	weight float64
	frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header, then
// one block per sample, each opened by a dashed rule. A block may start with
// label lines ("key:  value"); its first frame line carries the sample value
// and the innermost function, and each further line names one caller.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	var cur *stack
	inBlocks := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlocks = true
			if cur != nil {
				out = append(out, *cur)
				cur = nil
			}
			continue
		}
		t := strings.TrimSpace(line)
		if !inBlocks || t == "" {
			continue
		}
		first, rest, _ := strings.Cut(t, " ")
		if cur == nil {
			if strings.HasSuffix(first, ":") {
				continue // sample label
			}
			v, err := parseValue(first)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			cur = &stack{weight: v, frames: []string{frameName(rest)}}
			continue
		}
		cur.frames = append(cur.frames, frameName(t))
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out, nil
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// parseValue reads a sample value as pprof prints it: a count, or a
// duration such as "10ms" or "1.50s" (returned in nanoseconds).
func parseValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		return strconv.ParseFloat(s, 64)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	scale, ok := map[string]float64{
		"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	}[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit %q", s[i:])
	}
	return v * scale, nil
}

// shares is a profile split by layer.
type shares struct {
	total float64
	// layer maps each layer (a name from layerPkgs, "misc", "other" or
	// "go.gc_bg") to the weight charged to it; the weights sum to total.
	layer map[string]float64
	// malloc is the weight of samples with runtime.mallocgc on the stack,
	// whichever layer they were charged to.
	malloc float64
}

// attribute charges every sample to one layer: GC background marking to
// go.gc_bg; otherwise the innermost repro/internal/<pkg> frame's package
// (misc for a repository package outside layerPkgs); otherwise misc when the
// stack has a benchmark or other repository frame, else other.
func attribute(stacks []stack) shares {
	s := shares{layer: map[string]float64{}}
	for _, st := range stacks {
		s.total += st.weight
		s.layer[classify(st.frames)] += st.weight
		for _, f := range st.frames {
			if f == "runtime.mallocgc" {
				s.malloc += st.weight
				break
			}
		}
	}
	return s
}

func classify(frames []string) string {
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" {
			return "go.gc_bg"
		}
	}
	repo := false
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layerPkgs {
				if pkg == l {
					return pkg
				}
			}
			return "misc"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/") {
			repo = true
		}
	}
	if repo {
		return "misc"
	}
	return "other"
}

// profiler records a CPU profile of this process into a file.
type profiler struct{ f *os.File }

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// profileShares splits a recorded CPU profile by layer, reading it with the
// toolchain's `go tool pprof -traces`.
func profileShares(path string) (shares, error) {
	goBin, err := osexec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	var stdout, stderr bytes.Buffer
	cmd := osexec.Command(goBin, "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return shares{}, fmt.Errorf("go tool pprof -traces: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	stacks, err := parseTraces(stdout.String())
	if err != nil {
		return shares{}, err
	}
	s := attribute(stacks)
	if s.total == 0 {
		return s, fmt.Errorf("profile %s holds no samples", path)
	}
	return s, nil
}
