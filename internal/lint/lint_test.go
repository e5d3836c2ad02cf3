package lint_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/program"
)

// findDiag returns the first diagnostic whose message contains want.
func findDiag(diags []lint.Diagnostic, want string) *lint.Diagnostic {
	for i := range diags {
		if strings.Contains(diags[i].Message, want) {
			return &diags[i]
		}
	}
	return nil
}

func mustBuild(t *testing.T, b *program.Builder) *program.Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func ld(base uint64, n int) *descriptor.Descriptor {
	return descriptor.New(base, arch.W4, descriptor.Load).Linear(int64(n), 1).MustBuild()
}

func st(base uint64, n int) *descriptor.Descriptor {
	return descriptor.New(base, arch.W4, descriptor.Store).Linear(int64(n), 1).MustBuild()
}

// ld2 is an 8×8 two-dimensional load: its configuration is a start part
// and a continuation part.
func ld2(base uint64) *descriptor.Descriptor {
	return descriptor.New(base, arch.W4, descriptor.Load).Dim(0, 8, 1).Dim(0, 8, 8).MustBuild()
}

const w = arch.W4

// TestNegativeCorpus runs small broken programs through the checker and
// asserts each one's exact diagnostic (by severity and message substring).
func TestNegativeCorpus(t *testing.T) {
	buf := lint.Extent{Base: 0x10000, Size: 4 * 64}
	cases := []struct {
		name  string
		build func() *program.Program
		opts  *lint.Options
		sev   lint.Severity
		want  string
	}{
		{
			name: "read unconfigured stream",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.Label("loop")
				b.I(isa.VFAdd(w, isa.V(5), isa.V(0), isa.V(0), isa.None))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u0 may be used before it is defined",
		},
		{
			name: "restart before end part",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld2(buf.Base))
				// Drop the end part, then start over: the first configuration
				// is structurally unterminated.
				b.I(parts[:len(parts)-1]...)
				b.I(isa.SCfgParts(0, ld(buf.Base, 64))...)
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "configuration of u0 restarted before its ss.end part",
		},
		{
			name: "descriptor walks out of its buffer",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, ld(buf.Base, 65)) // buffer holds 64 elems
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			opts: &lint.Options{Extents: []lint.Extent{buf}},
			sev:  lint.Error,
			want: "outside any allocated buffer",
		},
		{
			name: "undefined scalar",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.Add(isa.X(3), isa.X(1), isa.X(2)))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "x1 may be used before it is defined",
		},
		{
			name: "infinite loop",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.Li(isa.X(1), 1))
				b.Label("loop")
				b.I(isa.Add(isa.X(1), isa.X(1), isa.X(1)))
				b.I(isa.J("loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "loop starting here has no exit",
		},
		{
			name: "predicate width mismatch",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.Li(isa.X(9), 0))
				b.I(isa.Li(isa.X(1), 64))
				b.I(isa.Whilelt(arch.W8, isa.P(1), isa.X(9), isa.X(1)))
				b.I(isa.VLoad(arch.W4, isa.V(5), isa.X(1), isa.X(9), 0, isa.P(1)))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "predicate p1 was produced for 8-byte lanes",
		},
		{
			name: "resume without suspend",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, ld(buf.Base, 64))
				b.I(isa.SResume(0))
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "ss.resume on u0, which is not suspended",
		},
		{
			name: "read while suspended",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, ld(buf.Base, 64))
				b.I(isa.SSuspend(0))
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SResume(0))
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(6), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u0 read while its stream may be suspended",
		},
		{
			name: "configured but never used",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, ld(buf.Base, 64))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u0 is configured but never used",
		},
		{
			name: "reconfigured before use",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, ld(buf.Base, 64))
				b.ConfigStream(0, ld(buf.Base, 32))
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u0 reconfigured before its previous configuration was ever used",
		},
		{
			name: "write to load stream",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.Li(isa.X(1), 1))
				b.ConfigStream(0, ld(buf.Base, 64))
				b.Label("loop")
				b.I(isa.VDupX(w, isa.V(0), isa.X(1)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "writes u0, which is bound to a load stream",
		},
		{
			name: "read from store stream",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(0, st(buf.Base, 64))
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u0 reads a store (output) stream",
		},
		{
			name: "fall off the end",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.Li(isa.X(1), 1))
				return mustBuild(t, b)
			},
			sev:  lint.Warn,
			want: "control can fall off the end of the program",
		},
		{
			name: "configuration of a stream that does not exist",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld(buf.Base, 64))
				parts[0].Cfg.Stream = 40
				b.I(parts...)
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "configuration of non-existent stream u40",
		},
		{
			name: "continuation part without a start",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld2(buf.Base))
				b.I(parts[1:]...)
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "configuration part for u0 without a preceding start part",
		},
		{
			name: "configuration never completed",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld2(buf.Base))
				b.I(parts[:len(parts)-1]...)
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "configuration of u0 never completed (missing ss.end part)",
		},
		{
			name: "configuration does not reassemble",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld(buf.Base, 64))
				parts[0].Cfg.End = false
				mod := &descriptor.StaticMod{Target: descriptor.TargetOffset, Behav: descriptor.Add, Disp: 4}
				b.I(parts[0], isa.Inst{Op: isa.OpSCfg, Dst: isa.V(0),
					Cfg: &isa.StreamCfgPart{Stream: 0, End: true, Mod: mod}})
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "invalid configuration of u0: stream config: static modifier before second dimension",
		},
		{
			name: "branch target outside the program",
			build: func() *program.Program {
				// The builder resolves labels, so a corrupt target needs a
				// hand-assembled program.
				j := isa.J("out")
				j.Target = 7
				return &program.Program{Name: "bad", Insts: []isa.Inst{isa.Li(isa.X(1), 1), j, isa.Halt()}}
			},
			sev:  lint.Error,
			want: "branch target 7 is outside the program",
		},
		{
			name: "branch into a configuration run",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				parts := isa.SCfgParts(0, ld2(buf.Base))
				b.I(isa.Li(isa.X(1), 1))
				b.I(parts[0])
				b.Label("mid")
				b.I(parts[1])
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Blt(isa.X(1), isa.X(0), "mid"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "branch into the middle of u0's configuration (instructions 1..2)",
		},
		{
			name: "indirect origin not active",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.ConfigStream(1, descriptor.New(buf.Base, arch.W4, descriptor.Load).
					Linear(64, 1).Indirect(descriptor.TargetOffset, descriptor.SetValue, 0).
					MustBuild())
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(1)))
				b.I(isa.SBNotEnd(1, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "u1's indirect modifier consumes origin stream u0, which is not active here",
		},
		{
			name: "register that does not exist",
			build: func() *program.Program {
				// The store is checked against the live stream, so the
				// value analysis runs over the malformed operand too.
				b := program.NewBuilder("bad")
				b.I(isa.Li(isa.X(3), 7))
				b.I(isa.AddI(isa.X(2), isa.X(40), 16))
				b.ConfigStream(0, ld(buf.Base, 64))
				b.Label("loop")
				b.I(isa.VMove(w, isa.V(5), isa.V(0)))
				b.I(isa.Store(w, isa.X(2), 0, isa.X(3)))
				b.I(isa.SBNotEnd(0, "loop"))
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Error,
			want: "register x40 does not exist",
		},
		{
			name: "unreachable code",
			build: func() *program.Program {
				b := program.NewBuilder("bad")
				b.I(isa.J("end"))
				b.I(isa.Li(isa.X(1), 1))
				b.I(isa.Li(isa.X(2), 2))
				b.Label("end")
				b.I(isa.Halt())
				return mustBuild(t, b)
			},
			sev:  lint.Warn,
			want: "instructions 1..2 are unreachable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := lint.Check(tc.build(), tc.opts)
			d := findDiag(diags, tc.want)
			if d == nil {
				t.Fatalf("no diagnostic matching %q; got %v", tc.want, diags)
			}
			if d.Severity != tc.sev {
				t.Errorf("severity = %v, want %v (%s)", d.Severity, tc.sev, d.Message)
			}
		})
	}
}

// TestNoExitBruteForce checks "loop starting here has no exit" against its
// definition on random programs of j, blt, halt and nop with targets in
// [0, len]: a reachable pc is in a trap when it lies on a cycle and every pc
// it reaches reaches it back. Each trap must be reported exactly once, at
// its lowest pc.
func TestNoExitBruteForce(t *testing.T) {
	const msg = "loop starting here has no exit"
	rng := rand.New(rand.NewSource(1))
	traps := 0
	for trial := 0; trial < 50000; trial++ {
		n := 1 + rng.Intn(10)
		insts := make([]isa.Inst, n)
		succs := make([][]int, n)
		for pc := range insts {
			target := rng.Intn(n + 1)
			switch rng.Intn(4) {
			case 0:
				insts[pc] = isa.J("t")
				succs[pc] = []int{target}
			case 1:
				insts[pc] = isa.Blt(isa.X(0), isa.X(0), "t")
				succs[pc] = []int{target, pc + 1}
			case 2:
				insts[pc] = isa.Halt()
			default:
				insts[pc] = isa.Nop()
				succs[pc] = []int{pc + 1}
			}
			insts[pc].Target = target
		}
		// reach[v][w]: w is reachable from v by one or more edges.
		reach := make([][]bool, n)
		for v := range reach {
			reach[v] = make([]bool, n)
			stack := []int{v}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range succs[x] {
					if s < n && !reach[v][s] {
						reach[v][s] = true
						stack = append(stack, s)
					}
				}
			}
		}
		want := map[int]bool{}
		for v := 0; v < n; v++ {
			if v != 0 && !reach[0][v] || !reach[v][v] {
				continue
			}
			anchor, trap := v, true
			for w := 0; w < n; w++ {
				if reach[v][w] {
					trap = trap && reach[w][v]
					anchor = min(anchor, w)
				}
			}
			if trap {
				want[anchor] = true
			}
		}
		traps += len(want)
		got := map[int]int{}
		for _, d := range lint.Check(&program.Program{Name: "rand", Insts: insts}, nil) {
			if strings.Contains(d.Message, msg) {
				got[d.PC]++
			}
		}
		for pc, k := range got {
			if k != 1 || !want[pc] {
				t.Fatalf("%v: %q reported %d times at %d; traps anchored at %v", insts, msg, k, pc, want)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %q reported at %v; traps anchored at %v", insts, msg, got, want)
		}
	}
	if traps < 5000 {
		t.Fatalf("only %d traps drawn", traps)
	}
}

// TestCleanPrograms checks that canonical correct shapes produce no
// diagnostics at all.
func TestCleanPrograms(t *testing.T) {
	src := lint.Extent{Base: 0x10000, Size: 4 * 64}
	dst := lint.Extent{Base: 0x20000, Size: 4 * 64}
	opts := &lint.Options{Extents: []lint.Extent{src, dst}}

	t.Run("stream copy loop", func(t *testing.T) {
		b := program.NewBuilder("ok")
		b.ConfigStream(0, ld(src.Base, 64))
		b.ConfigStream(1, st(dst.Base, 64))
		b.Label("loop")
		b.I(isa.VMove(w, isa.V(1), isa.V(0)))
		b.I(isa.SBNotEnd(0, "loop"))
		b.I(isa.Halt())
		if diags := lint.Check(mustBuild(t, b), opts); len(diags) != 0 {
			t.Fatalf("unexpected diagnostics: %v", diags)
		}
	})

	t.Run("suspend resume", func(t *testing.T) {
		b := program.NewBuilder("ok")
		b.ConfigStream(0, ld(src.Base, 64))
		b.ConfigStream(1, st(dst.Base, 64))
		b.Label("loop")
		b.I(isa.VMove(w, isa.V(1), isa.V(0)))
		b.I(isa.SSuspend(0))
		b.I(isa.SResume(0))
		b.I(isa.SBNotEnd(0, "loop"))
		b.I(isa.Halt())
		if diags := lint.Check(mustBuild(t, b), opts); len(diags) != 0 {
			t.Fatalf("unexpected diagnostics: %v", diags)
		}
	})

	t.Run("reconfigure after use", func(t *testing.T) {
		// The Floyd-Warshall idiom: a second configuration of the same
		// register after the first was consumed is a rename, not an error.
		b := program.NewBuilder("ok")
		b.ConfigStream(0, ld(src.Base, 64))
		b.ConfigStream(1, st(dst.Base, 64))
		b.Label("l1")
		b.I(isa.VMove(w, isa.V(1), isa.V(0)))
		b.I(isa.SBNotEnd(0, "l1"))
		b.ConfigStream(0, ld(dst.Base, 64))
		b.ConfigStream(1, st(src.Base, 64))
		b.Label("l2")
		b.I(isa.VMove(w, isa.V(1), isa.V(0)))
		b.I(isa.SBNotEnd(0, "l2"))
		b.I(isa.Halt())
		if diags := lint.Check(mustBuild(t, b), opts); len(diags) != 0 {
			t.Fatalf("unexpected diagnostics: %v", diags)
		}
	})
}

// TestToError checks the error folding used by BuildVerified.
func TestToError(t *testing.T) {
	if err := lint.ToError(nil); err != nil {
		t.Fatalf("ToError(nil) = %v", err)
	}
	warnOnly := []lint.Diagnostic{{PC: 0, Severity: lint.Warn, Message: "meh"}}
	if err := lint.ToError(warnOnly); err != nil {
		t.Fatalf("warnings must not fail the build: %v", err)
	}
	withErr := append(warnOnly, lint.Diagnostic{PC: 3, Severity: lint.Error, Message: "boom"})
	err := lint.ToError(withErr)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ToError = %v, want boom", err)
	}
	if strings.Contains(err.Error(), "meh") {
		t.Fatalf("warning leaked into error: %v", err)
	}
}
