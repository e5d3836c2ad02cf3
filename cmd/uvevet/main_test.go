package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func vetSource(t *testing.T, src string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return vetFiles(fset, []*ast.File{f})
}

func wantFinding(t *testing.T, fs []finding, substr string) {
	t.Helper()
	for _, f := range fs {
		if strings.Contains(f.msg, substr) {
			return
		}
	}
	t.Errorf("no finding containing %q in %v", substr, fs)
}

func TestTimeNow(t *testing.T) {
	fs := vetSource(t, `package p
import "time"
func f() time.Time { return time.Now() }
func g(s time.Time) time.Duration { return time.Since(s) }
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %v", fs)
	}
	wantFinding(t, fs, "time.Now")
	wantFinding(t, fs, "time.Since")
}

func TestGlobalRand(t *testing.T) {
	fs := vetSource(t, `package p
import "math/rand"
func f() int { return rand.Intn(7) }
func ok() *rand.Rand { return rand.New(rand.NewSource(1)) }
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	wantFinding(t, fs, "rand.Intn")
}

func TestRenamedImports(t *testing.T) {
	fs := vetSource(t, `package p
import (
	clock "time"
	mrand "math/rand"
)
func f() { _ = clock.Now(); _ = mrand.Float64() }
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %v", fs)
	}
}

func TestMapRangePrint(t *testing.T) {
	fs := vetSource(t, `package p
import "fmt"
func f(m map[string]int) {
	x := map[string]int{}
	for k, v := range x {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	wantFinding(t, fs, "map-range")
}

// The original Degenerate() shape: a printf-style closure called inside a
// map-range over a struct's map field — the class of bug the check exists
// for.
func TestMapFieldRangeFormattedHelper(t *testing.T) {
	fs := vetSource(t, `package p
type Report struct{ Summary map[string]float64 }
func f(rep Report, add func(string, ...any)) {
	for k, v := range rep.Summary {
		add("%s: summary %q is non-finite", k, v)
	}
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	wantFinding(t, fs, "map-range")
}

// The canonical fix — collect, sort, range the slice — must stay clean,
// as must map-ranges that only collect.
func TestSortedIterationClean(t *testing.T) {
	fs := vetSource(t, `package p
import (
	"fmt"
	"sort"
)
func f(m map[string]int) {
	keys := make([]string, 0, len(m))
	seen := make(map[string]bool)
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

// The pinned bug shape for check 4: an analyzer builds its returned
// diagnostic around the scratch slice the caller handed in — once the
// caller reuses the buffer, the diagnostic silently rewrites itself.
func TestAliasedCaptureInReturn(t *testing.T) {
	fs := vetSource(t, `package p
type Diag struct{ PCs []int }
func analyze(pcs []int) []Diag {
	var out []Diag
	out = append(out, Diag{PCs: pcs})
	return out
}
func direct(pcs []int) Diag { return Diag{PCs: pcs} }
func ptr(pcs []int) *Diag { return &Diag{PCs: pcs} }
`)
	if len(fs) != 3 {
		t.Fatalf("want 3 findings, got %v", fs)
	}
	wantFinding(t, fs, "PCs aliases slice/map parameter pcs")
}

// Copies, non-returned locals, and non-slice parameters must stay clean.
func TestAliasedCaptureClean(t *testing.T) {
	fs := vetSource(t, `package p
type Diag struct{ PCs []int; N int }
func copied(pcs []int) Diag {
	return Diag{PCs: append([]int(nil), pcs...)}
}
func scratch(pcs []int) int {
	tmp := Diag{PCs: pcs} // never returned: aliasing is function-local
	return len(tmp.PCs)
}
func scalar(n int) Diag { return Diag{N: n} }
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

// The pinned bug shape for check 5: %v flattens an error another frame
// wants to errors.Is against; %w and non-error operands stay clean.
func TestErrorfNoWrap(t *testing.T) {
	fs := vetSource(t, `package p
import "fmt"
type inst struct{ Err error }
func f(err error) error { return fmt.Errorf("run failed: %v", err) }
func g(i inst) error { return fmt.Errorf("build: %s", i.Err) }
func wrapped(err error) error { return fmt.Errorf("run failed: %w", err) }
func value(n int) error { return fmt.Errorf("bad size: %v", n) }
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %v", fs)
	}
	wantFinding(t, fs, "fmt.Errorf formats err")
	wantFinding(t, fs, "fmt.Errorf formats Err")
}

// The pinned bug shape for check 6: the Program.String label bug. A
// pc→labels back-map is filled by ranging the label map; the per-pc
// slices inherit map order and the rendered listing differs run to run.
func TestUnsortedCollectBackMap(t *testing.T) {
	fs := vetSource(t, `package p
type Program struct{ Labels map[string]int }
func render(p Program) map[int][]string {
	back := map[int][]string{}
	for name, pc := range p.Labels {
		back[pc] = append(back[pc], name)
	}
	return back
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	wantFinding(t, fs, "appended into back, never sorted")
}

// The shipped fix — collect the keys, sort, then build the back-map from
// the sorted slice — must stay clean: the sort call sanctions the
// collection, and the second loop ranges a slice, not a map.
func TestUnsortedCollectSortedClean(t *testing.T) {
	fs := vetSource(t, `package p
import "sort"
type Program struct{ Labels map[string]int }
func render(p Program) map[int][]string {
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	back := map[int][]string{}
	for _, name := range names {
		back[p.Labels[name]] = append(back[p.Labels[name]], name)
	}
	return back
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

// Appending values unrelated to the iteration variables stays clean: only
// the key/value themselves carry the map's order.
func TestUnsortedCollectUnrelatedAppendClean(t *testing.T) {
	fs := vetSource(t, `package p
func f(m map[string]int) int {
	var ticks []int
	n := 0
	for range m {
		ticks = append(ticks, n)
		n++
	}
	return len(ticks)
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

func TestLocalMakeMapDetected(t *testing.T) {
	fs := vetSource(t, `package p
import "fmt"
func f() {
	var m map[int]int
	for k := range m {
		fmt.Sprint(k)
	}
}
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
}

// The pinned Cache.Tick shape: retrying unissued fills by ranging the MSHR
// map made the retry order, and so the cycle count, vary between runs. In a
// timing package any map range is flagged, even one that only mutates.
func TestTimingPackageMapRange(t *testing.T) {
	src := `package mem
type mshr struct{ issued bool }
type Cache struct{ mshrs map[uint64]*mshr }
func (c *Cache) issueFill(now int64, ms *mshr) { ms.issued = true }
func (c *Cache) Tick(now int64) {
	for _, ms := range c.mshrs {
		if !ms.issued {
			c.issueFill(now, ms)
		}
	}
}
`
	fs := vetSource(t, src)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	wantFinding(t, fs, "timing package")

	// The same loop outside the timing packages only mutates: clean.
	if fs := vetSource(t, strings.Replace(src, "package mem", "package report", 1)); len(fs) != 0 {
		t.Fatalf("non-timing package flagged: %v", fs)
	}
	// Ranging a slice in a timing package is clean.
	if fs := vetSource(t, strings.Replace(src, "map[uint64]*mshr", "[]*mshr", 1)); len(fs) != 0 {
		t.Fatalf("slice range flagged: %v", fs)
	}
}
