// Command uvevet is the repo's determinism vet: the simulator must be a
// pure function of (program, configuration, seed), so its packages may not
// observe wall-clock time, draw from the global (unseeded) math/rand
// source, or let Go's randomized map iteration order leak into rendered
// reports. go vet has no such checks and golang.org/x/tools is not a
// dependency, so this is a small stdlib-only AST walk.
//
// Checks:
//
//  1. time.Now (and time.Since/time.Until, which call it) — wall-clock
//     reads make runs unreproducible.
//  2. Global math/rand draws (rand.Intn, rand.Float64, rand.Shuffle, …) —
//     the process-global source is unseeded; use rand.New(rand.NewSource(seed)).
//  3. Map iteration that prints or formats inside the loop body — the
//     canonical fix is collecting the keys, sorting, then ranging the
//     slice. Map detection is package-local and allowlist-shaped (local
//     make/literal/var declarations and struct fields declared in the
//     scanned package), so it cannot false-positive on slices.
//  4. Slice/map parameters captured into a returned composite literal
//     without copying — returned diagnostics and reports must own their
//     storage, or a caller mutating its buffer retroactively rewrites
//     them. The fix is an explicit copy (append(nil, s...), maps.Clone).
//  5. fmt.Errorf calls that format an error-shaped operand with %v/%s and
//     wrap nothing — %w keeps the chain visible to errors.Is/As.
//  6. Map-range loops that append the iteration key/value into a
//     collection the function never sorts — the slice inherits map order.
//     (This is the shape of the Program.String label-rendering bug: a
//     pc→labels back-map built by ranging the label map.) The canonical
//     collect-sort-range fix stays clean because the sort call sanctions
//     the collection.
//  7. Any map-range loop in the timing packages (cpu, engine, mem). There
//     the loop body runs simulated events, so map order can reorder them:
//     the cache once retried unissued fills by ranging its MSHR map, and
//     cycle counts changed between runs. Keep an ordered slice instead.
//
// Usage: uvevet [dir ...] — defaults to the simulation packages. Exit 1
// when any finding is reported, 0 when clean.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultDirs are the determinism-critical packages — everything that
// executes programs or renders measurement reports, the static analyzers
// whose returned diagnostics the capture check (4) guards, and the
// serialization path (program/descriptor/kernels/wire/trace), where map
// order leaking into rendered or encoded bytes breaks the wire format's
// canonical-form guarantee, plus the content-addressed result path
// (report/store), where nondeterministic payload bytes would break the
// byte-identical-reports guarantee. internal/serve is deliberately
// absent: the daemon legitimately reads the clock (rate limiting, job
// timeouts) and never renders payload bytes itself.
var defaultDirs = []string{
	"internal/sim", "internal/cpu", "internal/engine",
	"internal/mem", "internal/bench", "internal/funcsim", "internal/interp",
	"internal/lint", "internal/cost", "internal/absint", "internal/cfg",
	"internal/program", "internal/descriptor", "internal/trace",
	"internal/kernels", "internal/wire", "internal/report",
	"internal/store",
}

// timingPackages are the cycle-level model's packages (internal/cpu,
// internal/engine, internal/mem), where check 7 forbids map ranges.
var timingPackages = map[string]bool{"cpu": true, "engine": true, "mem": true}

// globalRandFuncs are the math/rand top-level draws backed by the
// process-global source. Constructors (New, NewSource, NewZipf) are fine.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// fmtOutputFuncs format or print — inside a map-range body they serialize
// the nondeterministic iteration order.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

// writerMethods are the io/strings.Builder sinks that serialize order.
var writerMethods = map[string]bool{
	"WriteString": true, "WriteByte": true, "WriteRune": true, "Write": true,
	"Encode": true,
}

type finding struct {
	pos token.Position
	msg string
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var findings []finding
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uvevet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, pkg := range pkgs {
			var files []*ast.File
			var names []string
			for name := range pkg.Files {
				names = append(names, name)
			}
			// Sorted order: the vet's own output must be deterministic.
			sortStrings(names)
			for _, name := range names {
				files = append(files, pkg.Files[name])
			}
			findings = append(findings, vetFiles(fset, files)...)
		}
	}
	for _, f := range findings {
		rel := f.pos.Filename
		if wd, err := os.Getwd(); err == nil {
			if r, err := filepath.Rel(wd, rel); err == nil {
				rel = r
			}
		}
		fmt.Printf("%s:%d:%d: %s\n", rel, f.pos.Line, f.pos.Column, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// vetFiles runs every check over one package's files.
func vetFiles(fset *token.FileSet, files []*ast.File) []finding {
	mapFields := collectMapFields(files)
	var out []finding
	for _, f := range files {
		timeName, randName := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					if timeName != "" && pkg.Name == timeName &&
						(sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until") {
						out = append(out, finding{fset.Position(n.Pos()),
							fmt.Sprintf("time.%s: wall-clock read in a deterministic package", sel.Sel.Name)})
					}
					if randName != "" && pkg.Name == randName && globalRandFuncs[sel.Sel.Name] {
						out = append(out, finding{fset.Position(n.Pos()),
							fmt.Sprintf("rand.%s: global math/rand source; use rand.New(rand.NewSource(seed))", sel.Sel.Name)})
					}
				}
			}
			if f, ok := errorfNoWrap(fset, call); ok {
				out = append(out, f)
			}
			return true
		})
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, vetMapRanges(fset, fn, mapFields)...)
				out = append(out, vetUnsortedCollect(fset, fn, mapFields)...)
				out = append(out, vetAliasedCapture(fset, fn)...)
				if timingPackages[f.Name.Name] {
					out = append(out, vetTimingMapRanges(fset, fn, mapFields)...)
				}
			}
		}
	}
	return out
}

// importNames returns the local names "time" and "math/rand" are imported
// under ("" when not imported; "_"/"." imports are ignored).
func importNames(f *ast.File) (timeName, randName string) {
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		switch path {
		case "time":
			if name == "" {
				name = "time"
			}
			timeName = name
		case "math/rand", "math/rand/v2":
			if name == "" {
				name = "rand"
			}
			randName = name
		}
	}
	return
}

// collectMapFields gathers struct field names declared with a map type
// anywhere in the package, so `x.Summary` ranges are recognized.
func collectMapFields(files []*ast.File) map[string]bool {
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if _, isMap := fld.Type.(*ast.MapType); isMap {
					for _, name := range fld.Names {
						fields[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return fields
}

// collectLocalMaps gathers the names a function binds to definite map
// values: map-typed parameters, local var declarations and assignments
// from make/literals.
func collectLocalMaps(fn *ast.FuncDecl) map[string]bool {
	localMaps := map[string]bool{}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			if _, isMap := p.Type.(*ast.MapType); isMap {
				for _, name := range p.Names {
					localMaps[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if isMapExpr(rhs) {
					localMaps[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, isMap := n.Type.(*ast.MapType); isMap {
				for _, id := range n.Names {
					localMaps[id.Name] = true
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMapExpr(v) {
					localMaps[n.Names[i].Name] = true
				}
			}
		}
		return true
	})
	return localMaps
}

// vetMapRanges flags map-range loops whose body formats or prints.
func vetMapRanges(fset *token.FileSet, fn *ast.FuncDecl, mapFields map[string]bool) []finding {
	localMaps := collectLocalMaps(fn)
	var out []finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !rangesOverMap(rng.X, localMaps, mapFields) {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, isSink := outputSink(call); isSink {
				out = append(out, finding{fset.Position(call.Pos()),
					fmt.Sprintf("%s inside a map-range loop: iteration order leaks into output (collect keys, sort, then range the slice)", name)})
			}
			return true
		})
		return true
	})
	return out
}

// vetTimingMapRanges flags every map-range loop in a timing package,
// whatever its body does: in the cycle model the body runs simulated
// events, and Go randomizes map order.
func vetTimingMapRanges(fset *token.FileSet, fn *ast.FuncDecl, mapFields map[string]bool) []finding {
	localMaps := collectLocalMaps(fn)
	var out []finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && rangesOverMap(rng.X, localMaps, mapFields) {
			out = append(out, finding{fset.Position(rng.Pos()),
				"range over a map in a timing package: map order can reorder simulated events (iterate an ordered slice)"})
		}
		return true
	})
	return out
}

// vetUnsortedCollect flags map-range loops that append the iteration
// key/value into a collection the function never sorts: the slice inherits
// the map's randomized order, and any later walk over it — rendering,
// encoding, back-map construction — is nondeterministic. This is exactly
// the shape of the Program.String label bug (a pc→labels back-map filled
// by ranging the label map). The canonical collect-sort-range fix stays
// clean: the sort call sanctions the collection by name.
func vetUnsortedCollect(fset *token.FileSet, fn *ast.FuncDecl, mapFields map[string]bool) []finding {
	localMaps := collectLocalMaps(fn)

	// Names passed to any sort/slices call in this function are considered
	// ordered, wherever the call appears.
	sorted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, a := range call.Args {
			if name := exprName(a); name != "" {
				sorted[name] = true
			}
		}
		return true
	})

	var out []finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !rangesOverMap(rng.X, localMaps, mapFields) {
			return true
		}
		iterVars := map[string]bool{}
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				iterVars[id.Name] = true
			}
		}
		if len(iterVars) == 0 {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				fun, ok := call.Fun.(*ast.Ident)
				if !ok || fun.Name != "append" || len(call.Args) < 2 {
					continue
				}
				carries := false
				for _, a := range call.Args[1:] {
					if id, ok := a.(*ast.Ident); ok && iterVars[id.Name] {
						carries = true
					}
				}
				if !carries {
					continue
				}
				target := exprName(as.Lhs[i])
				if target == "" || sorted[target] {
					continue
				}
				out = append(out, finding{fset.Position(as.Pos()),
					fmt.Sprintf("map-range key/value appended into %s, never sorted in this function: element order is nondeterministic (collect, sort, then use)", target)})
			}
			return true
		})
		return true
	})
	return out
}

// exprName renders the identifier path an append target or sort argument
// names: x, x.Field, or the base of an index expression (m[k] → m).
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base, ok := e.X.(*ast.Ident); ok {
			return base.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	}
	return ""
}

// errorfNoWrap flags fmt.Errorf calls that format an error-shaped operand
// (an identifier or field whose name says it holds an error) with %v or %s
// while the format wraps nothing: the chain is flattened and downstream
// errors.Is/As matching silently stops working.
func errorfNoWrap(fset *token.FileSet, call *ast.CallExpr) (finding, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return finding{}, false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" || len(call.Args) < 2 {
		return finding{}, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return finding{}, false
	}
	format := lit.Value
	if strings.Contains(format, "%w") ||
		(!strings.Contains(format, "%v") && !strings.Contains(format, "%s")) {
		return finding{}, false
	}
	for _, a := range call.Args[1:] {
		if name, ok := errorishName(a); ok {
			return finding{fset.Position(call.Pos()),
				fmt.Sprintf("fmt.Errorf formats %s with %%v/%%s; %%w keeps the chain visible to errors.Is/As", name)}, true
		}
	}
	return finding{}, false
}

// errorishName reports names that conventionally hold errors (err, runErr,
// inst.Err, ...). Name-shaped detection keeps the check stdlib-only: no
// type information is available without golang.org/x/tools.
func errorishName(e ast.Expr) (string, bool) {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	if lower == "err" || strings.HasSuffix(lower, "err") || strings.HasSuffix(lower, "error") {
		return name, true
	}
	return "", false
}

// vetAliasedCapture flags slice/map-typed parameters stored bare into a
// composite literal the function returns — directly, or appended to a
// returned variable. A diagnostic or report built that way aliases
// caller-owned storage: the caller reusing its buffer rewrites history.
func vetAliasedCapture(fset *token.FileSet, fn *ast.FuncDecl) []finding {
	if fn.Type.Results == nil || len(fn.Type.Results.List) == 0 {
		return nil
	}
	aliasable := map[string]bool{}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			if !sliceOrMapType(p.Type) {
				continue
			}
			for _, name := range p.Names {
				aliasable[name.Name] = true
			}
		}
	}
	if len(aliasable) == 0 {
		return nil
	}
	// Returned names: named results plus every identifier a return lists.
	returned := map[string]bool{}
	for _, r := range fn.Type.Results.List {
		for _, name := range r.Names {
			returned[name.Name] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, e := range ret.Results {
				if id, ok := e.(*ast.Ident); ok {
					returned[id.Name] = true
				}
			}
		}
		return true
	})

	var out []finding
	capture := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			id, ok := kv.Value.(*ast.Ident)
			if !ok || !aliasable[id.Name] {
				return true
			}
			field := "field"
			if k, ok := kv.Key.(*ast.Ident); ok {
				field = k.Name
			}
			out = append(out, finding{fset.Position(kv.Pos()),
				fmt.Sprintf("%s aliases slice/map parameter %s in a returned value; copy before capturing", field, id.Name)})
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				if lit := compositeIn(e); lit != nil {
					capture(lit)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				lhs, ok := n.Lhs[i].(*ast.Ident)
				if !ok || !returned[lhs.Name] {
					continue
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" && len(call.Args) > 1 {
					for _, a := range call.Args[1:] {
						if lit := compositeIn(a); lit != nil {
							capture(lit)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// sliceOrMapType matches the parameter types whose storage a caller owns.
func sliceOrMapType(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.ArrayType:
		return t.Len == nil // arrays copy; slices alias
	case *ast.MapType:
		return true
	}
	return false
}

// compositeIn unwraps Lit{...} and &Lit{...}.
func compositeIn(e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return compositeIn(e.X)
		}
	}
	return nil
}

// isMapExpr reports whether an expression definitely yields a map:
// make(map[...]), a map literal, or a conversion to a map type.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, isMap := e.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	}
	return false
}

func rangesOverMap(x ast.Expr, localMaps, mapFields map[string]bool) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return localMaps[x.Name]
	case *ast.SelectorExpr:
		return mapFields[x.Sel.Name]
	}
	return isMapExpr(x)
}

// outputSink reports whether a call formats or writes ordered output.
func outputSink(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" && fmtOutputFuncs[sel.Sel.Name] {
			return "fmt." + sel.Sel.Name, true
		}
		if writerMethods[sel.Sel.Name] {
			return "." + sel.Sel.Name, true
		}
	}
	// A direct format-string argument (e.g. a local printf-style helper):
	// the formatted text still serializes the iteration order.
	if len(call.Args) > 0 {
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%") {
			return "formatted call", true
		}
	}
	return "", false
}
