package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis. A test
// package (Load with tests) holds _test.go files: an in-package test
// variant checks them together with the package's own files, under the
// package's path; an external test package has the path's "_test" form.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewPass wraps the package for analyzer consumption.
func (p *Package) NewPass() *Pass { return NewPass(p.Fset, p.Files, p.Types, p.Info) }

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Export       string // the compiled export data, with -export
	DepOnly      bool   // listed by -deps only, not matched by a pattern
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// loader is one type universe. The packages of the main modules it lists
// are type-checked from source, each after its imports, exactly once, so
// every import path has one *types.Package and the analyzers can compare
// types across packages. Every other import — the standard library — is
// read from the export data `go list -export` reports, which the go
// command builds offline into its build cache.
type loader struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	mains   map[string]bool     // main module paths
	checked map[string]*Package // nil while the package is being checked
	order   []*Package          // checked packages, each after its imports
	gc      types.Importer
}

func newLoader() *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		mains:   map[string]bool{},
		checked: map[string]*Package{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.openExport)
	return l
}

// Import type-checks a main-module package from source, after the module
// packages it imports (in go list's sorted order, so the check order is
// stable), and imports anything else through the shared export-data
// importer.
func (l *loader) Import(path string) (*types.Package, error) {
	lp := l.listed[path]
	if lp == nil || !l.source(lp) {
		return l.gc.Import(path)
	}
	if pkg, ok := l.checked[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg.Types, nil
	}
	l.checked[path] = nil
	for _, dep := range lp.Imports {
		if d := l.listed[dep]; d != nil && l.source(d) {
			if _, err := l.Import(dep); err != nil {
				return nil, err
			}
		}
	}
	if lp.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", path, lp.Error.Err)
	}
	files, err := l.parse(lp.Dir, lp.GoFiles)
	var pkg *Package
	if err == nil {
		pkg, err = l.check(path, lp.Dir, files, l, false)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	l.checked[path] = pkg
	l.order = append(l.order, pkg)
	return pkg.Types, nil
}

func (l *loader) openExport(path string) (io.ReadCloser, error) {
	lp := l.listed[path]
	if lp == nil || lp.Export == "" {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(lp.Export)
}

// source reports whether lp belongs to a main module, so is checked from
// source rather than imported.
func (l *loader) source(lp *listedPackage) bool {
	return lp.Module != nil && l.mains[lp.Module.Path]
}

// Load type-checks the packages the go list patterns (e.g. "./...")
// match in each module root of dirs, in dependency order, with the
// module packages they import, into one type universe; with tests, each
// matched package's test packages follow all of them. A module that
// requires another through a replace directive shares its packages.
// Type errors in test packages are not reported: an external test that
// imports its package's test variant beside packages built against the
// plain one gets mismatches the go command avoids by recompiling, and
// every identifier still resolves.
func Load(dirs, patterns []string, tests bool) ([]*Package, error) {
	l := newLoader()
	for _, dir := range dirs {
		if err := l.list(dir, patterns, tests); err != nil {
			return nil, err
		}
	}
	return l.checkModules(tests)
}

// list runs `go list -e -export -deps -json` on patterns in dir and
// merges what it reports; with tests, a second call lists the imports of
// the main-module packages' test files that the first did not. The proxy
// is off: the loader reads the module and the build cache, never the
// network.
func (l *loader) list(dir string, patterns []string, tests bool) error {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return fmt.Errorf("lint: go list failed: %s", strings.TrimSpace(msg))
	}
	var missing []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return fmt.Errorf("lint: decoding go list output: %w", err)
		}
		main := lp.Module != nil && lp.Module.Main
		if main {
			l.mains[lp.Module.Path] = true
		}
		if prev := l.listed[lp.ImportPath]; prev == nil || prev.DepOnly {
			l.listed[lp.ImportPath] = lp // a pattern's match is kept
		}
		if tests && main {
			missing = append(append(missing, lp.TestImports...), lp.XTestImports...)
		}
	}
	missing = slices.DeleteFunc(missing, func(p string) bool { return l.listed[p] != nil })
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return l.list(dir, slices.Compact(missing), false)
}

// checkModules type-checks every listed main-module package and returns
// those a pattern matched, each after its imports, followed with tests by
// their test packages. A listed package outside the main modules must
// have export data.
func (l *loader) checkModules(tests bool) ([]*Package, error) {
	var roots []string
	for path, lp := range l.listed {
		switch {
		case l.source(lp):
			roots = append(roots, path)
		case lp.Export == "" && path != "unsafe":
			msg := "go list reported none"
			if lp.Error != nil {
				msg = strings.TrimSpace(lp.Error.Err)
			}
			return nil, fmt.Errorf("lint: no export data for %s: %s", path, msg)
		}
	}
	sort.Strings(roots)
	for _, path := range roots {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, pkg := range l.order {
		if !l.listed[pkg.Path].DepOnly {
			out = append(out, pkg)
		}
	}
	if !tests {
		return out, nil
	}
	var testPkgs []*Package
	for _, pkg := range out {
		lp := l.listed[pkg.Path]
		under := pkg.Types
		if len(lp.TestGoFiles) > 0 {
			files, err := l.parse(lp.Dir, lp.TestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: %w", pkg.Path, err)
			}
			variant, _ := l.check(pkg.Path, lp.Dir, append(slices.Clip(pkg.Files), files...), l, true)
			under = variant.Types
			testPkgs = append(testPkgs, variant)
		}
		if len(lp.XTestGoFiles) > 0 {
			files, err := l.parse(lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: %w", pkg.Path, err)
			}
			imp := importerFunc(func(path string) (*types.Package, error) {
				if path == pkg.Path {
					return under, nil
				}
				return l.Import(path)
			})
			xtest, _ := l.check(pkg.Path+"_test", lp.Dir, files, imp, true)
			testPkgs = append(testPkgs, xtest)
		}
	}
	return append(out, testPkgs...), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package path. A soft check records
// every type error's position instead of stopping at the first and
// never fails.
func (l *loader) check(path, dir string, files []*ast.File, imp types.Importer, soft bool) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	if soft {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && !soft {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}
