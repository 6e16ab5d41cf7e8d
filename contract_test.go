package pieo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// contractPkgs are the packages whose interfaces are seams: every list
// implements backend.Backend in full and every simulated scheduler
// netsim.Scheduler in full, so production code has nothing to discover
// by type assertion.
var contractPkgs = map[string]string{
	"pieo/internal/backend": "internal/backend",
	"pieo/internal/netsim":  "internal/netsim",
}

// optionalCaps are the capabilities one backend cannot answer honestly
// and so stay optional: the reference model has neither a hardware
// datapath nor a native batch path (core and SyncList have both).
var optionalCaps = map[string]bool{"HardwareModeled": true, "Batcher": true}

// TestNoCapabilityProbes parses every non-test Go file outside bench/
// and fails on any type assertion (or type-switch case) to an interface
// declared in internal/backend or internal/netsim, the two optional
// capabilities aside. The benchmark is exempt: it forwards the
// capabilities it wraps and is rewritten on its own schedule.
func TestNoCapabilityProbes(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The interfaces each contract package declares, plus the facade's
	// aliases of them, by the name a file in that package uses.
	ifaces := map[string]map[string]bool{} // package dir -> interface names
	for _, dir := range contractPkgs {
		ifaces[dir] = map[string]bool{}
	}
	type target struct{ dir, name string }
	facade := map[string]target{} // root-package aliases into contract packages
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
		imports := contractImports(f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, isIface := ts.Type.(*ast.InterfaceType); isIface && ifaces[dir] != nil {
					ifaces[dir][ts.Name.Name] = true
				}
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && dir == "." && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						facade[ts.Name.Name] = target{imports[x.Name], sel.Sel.Name}
					}
				}
			}
		}
	}
	// viaFacade resolves a facade alias to the contract interface it
	// names, or "" when it names none.
	viaFacade := func(alias string) string {
		if tg, ok := facade[alias]; ok && ifaces[tg.dir][tg.name] {
			return tg.name
		}
		return ""
	}

	probes := 0
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename))
		imports := contractImports(f)
		check := func(typ ast.Expr) {
			var name string
			switch x := typ.(type) {
			case *ast.Ident:
				if ifaces[dir][x.Name] {
					name = x.Name
				} else if dir == "." {
					name = viaFacade(x.Name)
				}
			case *ast.SelectorExpr:
				pkg, ok := x.X.(*ast.Ident)
				if !ok {
					return
				}
				if d := imports[pkg.Name]; d != "" && ifaces[d][x.Sel.Name] {
					name = x.Sel.Name
				} else if imports[pkg.Name] == facadeDir {
					name = viaFacade(x.Sel.Name)
				}
			}
			if name == "" || optionalCaps[name] {
				return
			}
			probes++
			t.Errorf("%s: type assertion to %s: production code calls the contract, it probes no capability",
				fset.Position(typ.Pos()), name)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					check(n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, typ := range c.(*ast.CaseClause).List {
						check(typ)
					}
				}
			}
			return true
		})
	}
	if probes > 0 {
		t.Logf("%d capability probes in production code", probes)
	}
}

// facadeDir marks the module root (the pieo facade) in contractImports.
const facadeDir = "."

// contractImports maps the local names f gives the contract packages and
// the facade to their directories.
func contractImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := contractPkgs[path]
		if path == "pieo" {
			dir, ok = facadeDir, true
		}
		if !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = dir
	}
	return out
}
