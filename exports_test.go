package afraid

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"afraid/internal/testutil"
)

// exportsExempt lists the internal packages whose exports the guard does
// not hold to a shipped caller: the benchmark harness, the chaos
// toolkit and the test helpers are surfaces for test and tool code.
var exportsExempt = map[string]bool{
	"afraid/internal/bench":    true,
	"afraid/internal/fault":    true,
	"afraid/internal/testutil": true,
}

// TestEveryExportHasAShippedCaller type-checks the module from source
// and fails on every exported function, method, constant, variable or
// type of a package under internal/ that no non-test file references
// outside the name's own declaration (for a type, outside its methods
// too). A method that shares its name with a method of any interface in
// the loaded packages is skipped: an interface call reaches it without
// naming it. Such a name is surface only a test reaches; move it into a
// _test.go file or delete it.
func TestEveryExportHasAShippedCaller(t *testing.T) {
	s := scanModule(t)
	ifaceMethods := s.interfaceMethodNames()
	var dead []string
	for path, p := range s.pkgs {
		if p == nil || !strings.HasPrefix(path, "afraid/internal/") || exportsExempt[path] {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !s.shipped[obj] {
				dead = append(dead, path[len("afraid/internal/"):]+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !s.shipped[fn] && !ifaceMethods[fn.Name()] {
					dead = append(dead, path[len("afraid/internal/"):]+"."+name+"."+fn.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: exported, but only tests reference it", name)
	}
}

// TestEveryOptionHasAShippedCaller fails on every exported field of an
// exported struct type under internal/ whose name ends in Options, Config
// or Policy that no non-test file outside the field's own package names.
// Such a field is a knob whose every shipped run takes its default: make
// it that constant, or delete it. A test that needs another value sets
// an unexported field or variable of its own package.
func TestEveryOptionHasAShippedCaller(t *testing.T) {
	s := scanModule(t)
	var dead []string
	total := 0
	for path, p := range s.pkgs {
		if p == nil || !strings.HasPrefix(path, "afraid/internal/") || exportsExempt[path] {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isKnobType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				total++
				if !s.named[f] {
					dead = append(dead, path[len("afraid/internal/"):]+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: an option only tests and defaults set", name)
	}
	t.Logf("%d exported option fields, %d without a shipped caller", total, len(dead))
}

// isKnobType reports whether a struct type's name marks it as a set of
// options.
func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")
}

// moduleScan is the module type-checked once, with every object its
// non-test files reference: shipped holds those referenced outside
// their own declaration, named those referenced from another package.
type moduleScan struct {
	*moduleChecker
	shipped map[types.Object]bool
	named   map[types.Object]bool
}

var (
	scanOnce sync.Once
	scanned  *moduleScan
	scanErr  error
)

// scanModule type-checks the module the first time a test asks, and
// skips the test under -short and -race.
func scanModule(t *testing.T) *moduleScan {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("type-checks the module and the standard library from source")
	}
	scanOnce.Do(func() { scanned, scanErr = loadModule() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	return scanned
}

func loadModule() (*moduleScan, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	m := newModuleChecker(root)

	var dirs []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	s := &moduleScan{moduleChecker: m, shipped: map[types.Object]bool{}, named: map[types.Object]bool{}}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := "afraid"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if path == "afraid/internal/testutil" {
			continue // imported by tests alone: its references ship nothing
		}
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // a directory whose files all carry other build tags
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				own := ownedBy(p.info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil {
							if !own[obj] {
								s.shipped[obj] = true
							}
							if obj.Pkg() != p.types {
								s.named[obj] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return s, nil
}

// ownedBy returns the objects a top-level declaration declares, and for
// a method its receiver's type: a reference from inside them is the
// name's own code, not a caller.
func ownedBy(info *types.Info, decl ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch x := typ.(type) {
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				own[info.Uses[id]] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	return own
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch x := obj.(type) {
	case *types.Func:
		return x.Origin()
	case *types.Var:
		return x.Origin()
	}
	return obj
}

// moduleChecker type-checks packages from source: the module's with
// their function bodies and uses recorded, the standard library's
// without bodies. Cgo is off, so each package is its pure-Go files.
type moduleChecker struct {
	root string
	ctx  build.Context
	fset *token.FileSet
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newModuleChecker(root string) *moduleChecker {
	ctx := build.Default
	ctx.CgoEnabled = false
	return &moduleChecker{root: root, ctx: ctx, fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}}
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

func (m *moduleChecker) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !strings.HasPrefix(path, "afraid/") && path != "afraid" {
		bp, err := m.ctx.Import(path, dir, 0)
		if err != nil {
			return nil, err
		}
		path = bp.ImportPath // resolves the standard library's vendored paths
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no buildable Go files", path)
	}
	return p.types, nil
}

// load type-checks the non-test files of the package at import path,
// once; it returns nil for a directory with no file for this platform.
func (m *moduleChecker) load(path string) (*checkedPkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	module := path == "afraid" || strings.HasPrefix(path, "afraid/")
	var bp *build.Package
	var err error
	if module {
		bp, err = m.ctx.ImportDir(filepath.Join(m.root, strings.TrimPrefix(path, "afraid")), 0)
	} else {
		bp, err = m.ctx.Import(path, m.root, 0)
	}
	if _, ok := err.(*build.NoGoError); ok {
		m.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	p := &checkedPkg{}
	if module {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m, IgnoreFuncBodies: !module}
	p.types, err = conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	m.pkgs[path] = p
	return p, nil
}

// interfaceMethodNames returns the name of every method of every
// interface the loaded packages declare or, in the module, spell out.
func (m *moduleChecker) interfaceMethodNames() map[string]bool {
	names := map[string]bool{}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range m.pkgs {
		if p == nil {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		if p.info != nil {
			for _, tv := range p.info.Types {
				if tv.Type != nil {
					add(tv.Type)
				}
			}
		}
	}
	return names
}
