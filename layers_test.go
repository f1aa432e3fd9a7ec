package predator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layerImports is the module's import allow-list: for every package
// (by directory), the module packages its non-test files may import.
// The stack, bottom up: types, obs → frame → storage, jvm, sql, wire,
// govern → core → expr, isolate → fleet, exec → plan → engine → server,
// and the public package over them. A new edge, or a new package, fails
// TestLayerImports until it is added here on purpose; so does an
// import of a package that was deleted, such as the old evaluation
// harness, since nothing lists it.
var layerImports = map[string][]string{
	"internal/types":   nil,
	"internal/obs":     nil,
	"internal/frame":   {"internal/types"},
	"internal/storage": {"internal/obs"},
	"internal/jvm":     {"internal/types"},
	"internal/inline":  {"internal/jvm"},
	"internal/jaguar":  {"internal/jvm"},
	"internal/govern":  {"internal/obs"},
	"internal/sql":     {"internal/types"},
	"internal/wire":    {"internal/frame", "internal/obs", "internal/types"},
	"internal/catalog": {"internal/frame", "internal/storage", "internal/types"},
	"internal/core":    {"internal/types"},
	"internal/expr":    {"internal/core", "internal/obs", "internal/types"},
	"internal/isolate": {"internal/core", "internal/frame", "internal/govern", "internal/jvm", "internal/obs", "internal/types"},
	"internal/fleet":   {"internal/core", "internal/govern", "internal/isolate", "internal/obs", "internal/types"},
	"internal/exec":    {"internal/core", "internal/expr", "internal/obs", "internal/storage", "internal/types"},
	"internal/plan":    {"internal/catalog", "internal/core", "internal/exec", "internal/expr", "internal/sql", "internal/types"},
	"internal/engine": {"internal/catalog", "internal/core", "internal/exec", "internal/expr", "internal/fleet",
		"internal/govern", "internal/isolate", "internal/jaguar", "internal/jvm", "internal/obs", "internal/plan",
		"internal/sql", "internal/storage", "internal/types"},
	"internal/server": {"internal/core", "internal/engine", "internal/frame", "internal/govern", "internal/obs",
		"internal/types", "internal/wire"},
	"internal/client": {"internal/frame", "internal/jaguar", "internal/jvm", "internal/types", "internal/wire"},
	".": {"internal/client", "internal/core", "internal/engine", "internal/govern", "internal/isolate",
		"internal/jaguar", "internal/jvm", "internal/obs", "internal/server", "internal/storage", "internal/types"},
	"benchmark": {".", "internal/core", "internal/exec", "internal/expr", "internal/plan", "internal/sql",
		"internal/storage", "internal/types", "internal/wire"},
	"cmd/jagc":               {"internal/jaguar", "internal/jvm"},
	"cmd/predator":           {".", "internal/types"},
	"cmd/predator-restore":   {"internal/storage"},
	"cmd/predator-server":    {"."},
	"cmd/udf-executor":       {"internal/isolate"},
	"examples/migration":     {"."},
	"examples/quickstart":    {"."},
	"examples/stockscreener": {"."},
	"examples/sunsets":       {"."},
}

// crossLayer names the imports that break the layering today. Each is
// allowed until it is removed; an entry that no file needs any more
// fails the test, so the list only shrinks.
var crossLayer = map[string][]string{
	// The VM design's constructor and the UDF context live in core, so
	// it reaches up into the VM, the IR, the tenant governor and the
	// crossing counters.
	"internal/core": {"internal/govern", "internal/inline", "internal/jvm", "internal/obs"},
	// The binder walks the parser's AST, inlined calls run the IR over
	// VM values, and evaluation charges the statement's memory
	// reservation.
	"internal/expr": {"internal/govern", "internal/inline", "internal/jvm", "internal/sql"},
	// Isolated UDFs are translated parent-side so they can inline.
	"internal/isolate": {"internal/inline"},
}

const module = "predator"

// sourceFiles returns the path of every non-test Go file in the module.
func sourceFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || path == filepath.Join("benchmark", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// moduleImports parses every non-test Go file in the module and
// returns, per package directory, the module packages it imports.
func moduleImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]map[string]bool{}
	for _, path := range sourceFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if pkgs[dir] == nil {
			pkgs[dir] = map[string]bool{}
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if imp == module {
				pkgs[dir]["."] = true
			} else if rel, ok := strings.CutPrefix(imp, module+"/"); ok {
				pkgs[dir][rel] = true
			}
		}
	}
	return pkgs
}

// TestLayerImports checks every package's imports against the layer
// allow-list plus the named cross-layer exceptions.
func TestLayerImports(t *testing.T) {
	pkgs := moduleImports(t)
	for dir, imports := range pkgs {
		allowed, ok := layerImports[dir]
		if !ok {
			t.Errorf("package %s has no entry in layerImports", dir)
			continue
		}
		for imp := range imports {
			if !slices.Contains(allowed, imp) && !slices.Contains(crossLayer[dir], imp) {
				t.Errorf("%s imports %s/%s, which its layer does not allow", dir, module, imp)
			}
		}
	}
	for dir, edges := range crossLayer {
		for _, imp := range edges {
			if !pkgs[dir][imp] {
				t.Errorf("cross-layer exception %s -> %s is no longer needed; delete it", dir, imp)
			}
		}
	}
}

// scanCloseExempt names, by "dir: Recv.Func", the functions that may
// take a heap-file scanner without deferring its Close. An entry that
// no function needs any more fails TestScannersClosed, so the list only
// shrinks.
var scanCloseExempt = map[string]string{
	"internal/exec: SeqScan.Open": "the operator's Close releases the scanner",
	// The benchmark's probes predate Scanner.Close. Their scans run to
	// the end, which releases the pin, except when newLayerProbe's
	// setup fails mid-scan and the pass is abandoned.
	"benchmark: newLayerProbe":   "setup scan; the pass ends if it fails",
	"benchmark: layerProbe.scan": "scans to the end",
}

// TestScannersClosed: a heap-file scanner pins the page it is on, so a
// function that takes one (sc := x.Scan()) must `defer sc.Close()` or a
// return mid-scan leaks the pin, and enough leaks exhaust the pool.
func TestScannersClosed(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, path := range sourceFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scanners, closed := map[string]token.Pos{}, map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if i < len(n.Lhs) && isScanCall(rhs) {
							scanners[types.ExprString(n.Lhs[i])] = n.Pos()
						}
					}
				case *ast.DeferStmt:
					if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
						closed[types.ExprString(sel.X)] = true
					}
				}
				return true
			})
			name := dir + ": " + funcName(fn)
			for sc, pos := range scanners {
				if closed[sc] {
					continue
				}
				if _, ok := scanCloseExempt[name]; ok {
					used[name] = true
					continue
				}
				t.Errorf("%s: %s takes a scanner %s without `defer %s.Close()`", fset.Position(pos), name, sc, sc)
			}
		}
	}
	for name := range scanCloseExempt {
		if !used[name] {
			t.Errorf("scanner exemption %q is no longer needed; delete it", name)
		}
	}
}

// isScanCall reports whether e is a call x.Scan() without arguments,
// the form in which a heap file hands out a scanner.
func isScanCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Scan"
}

// funcName renders a declaration as Recv.Func, or Func.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return types.ExprString(recv) + "." + fn.Name.Name
}
