package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadCode fails on any function or method, declared in a non-test
// file anywhere in the repository (bench/, cmd/ and examples/ included),
// whose name no non-test file references. Code that only its own tests
// call is dead weight: delete it with its tests, or move an oracle the
// tests still need into a _test.go file. The scan is by name, not by
// type, so a name referenced anywhere keeps every declaration of it alive.
//
// Exempt are entry points (main, init), the exported names of this root
// package (the public façade), the exported engine API pinned by
// internal/engine/testdata/api_surface.golden, methods whose name some
// interface declares (in the module or in stdInterfaceMethods), and the
// short deadcodeAllowlist below.
func TestNoDeadCode(t *testing.T) {
	type decl struct {
		pos  token.Position
		key  string // pkg.Name or pkg.Recv.Name
		name string
		recv bool
		root bool // declared in the root package
	}
	var decls []decl
	refs := map[string]bool{}
	ifaceMethods := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{
				pos:  fset.Position(fd.Name.Pos()),
				key:  key,
				name: fd.Name.Name,
				recv: fd.Recv != nil,
				root: filepath.Dir(path) == ".",
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declNames[n] {
					refs[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := apiSurfaceNames(t, filepath.Join("internal", "engine", "testdata", "api_surface.golden"))

	var dead []string
	for _, d := range decls {
		switch {
		case refs[d.name], d.name == "main", d.name == "init", d.name == "_":
		case d.root && ast.IsExported(d.name):
		case golden[d.name]:
		case d.recv && (ifaceMethods[d.name] || stdInterfaceMethods[d.name]):
		case deadcodeAllowlist[d.key]:
		default:
			dead = append(dead, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.key))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s: no non-test file references it; delete it with its tests, or move it into a _test.go file", line)
	}
	for key := range deadcodeAllowlist {
		found := false
		for _, d := range decls {
			found = found || d.key == key
		}
		if !found {
			t.Errorf("deadcodeAllowlist names %s, which is no longer declared; drop the entry", key)
		}
	}
}

// deadcodeAllowlist holds the functions that no non-test file calls but
// that are kept on purpose, keyed pkg.Name or pkg.Recv.Name.
var deadcodeAllowlist = map[string]bool{
	// Oracle of core's fused Monte-Carlo profile distance, which
	// montecarlo_test.go checks against it.
	"stats.SmoothedKLDivergence": true,
	// Entry point of FuzzParsePredicate, which fuzzes the WHERE-clause
	// parser on its own.
	"sqlparse.ParsePredicate": true,
	// Per-entity builder and views of a Sample: the oracles the freqstats
	// partial-merge tests and the engine filter tests compare against.
	"freqstats.Sample.AddEntityObservations": true,
	"freqstats.Sample.Entities":              true,
	"freqstats.Sample.EntitySourceCounts":    true,
	// Public API: repro.NewTracker returns a *core.Tracker, so its methods
	// are the façade's even though no program in the module reads them.
	"core.Tracker.History": true,
}

// stdInterfaceMethods are standard-library interface methods a type may
// implement without any module code naming them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// apiSurfaceNames reads the function and method names of an API-surface
// golden file, one "func ..." declaration per line.
func apiSurfaceNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcLine := regexp.MustCompile(`^func (?:\([^)]*\) )?(\w+)`)
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := funcLine.FindStringSubmatch(sc.Text()); m != nil {
			names[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}
