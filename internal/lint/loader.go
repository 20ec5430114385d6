package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
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
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	GoFiles    []string
	Imports    []string
}

// combinedImporter resolves module-local packages from the set already
// typechecked this load and everything else (stdlib) through the source
// importer, since there is no export data or module cache to lean on.
type combinedImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (ci *combinedImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ci.local[path]; ok {
		return pkg, nil
	}
	return ci.std.Import(path)
}

// LoadPatterns loads and typechecks the module-local packages matched by
// the go list patterns (e.g. "./..."), in dependency order. dir is the
// module root the patterns are resolved against.
func LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(listed)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ci := &combinedImporter{
		local: make(map[string]*types.Package),
		std:   importer.ForCompiler(fset, "source", nil),
	}
	var out []*Package
	byPath := make(map[string]*listedPackage, len(listed))
	for i := range listed {
		byPath[listed[i].ImportPath] = &listed[i]
	}
	for _, path := range order {
		lp := byPath[path]
		pkg, err := typecheck(fset, lp.ImportPath, lp.Dir, lp.GoFiles, ci)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", lp.ImportPath, err)
		}
		ci.local[lp.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

func typecheck(fset *token.FileSet, path, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
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
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return nil, fmt.Errorf("lint: go list failed: %s", strings.TrimSpace(msg))
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Standard {
			continue
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// topoOrder orders the listed packages so every package follows its
// module-local imports.
func topoOrder(listed []listedPackage) ([]string, error) {
	local := make(map[string][]string, len(listed))
	for _, lp := range listed {
		local[lp.ImportPath] = lp.Imports
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int, len(listed))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = grey
		deps := local[path]
		sorted := make([]string, 0, len(deps))
		for _, dep := range deps {
			if _, ok := local[dep]; ok {
				sorted = append(sorted, dep)
			}
		}
		sort.Strings(sorted)
		for _, dep := range sorted {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	roots := make([]string, 0, len(listed))
	for _, lp := range listed {
		roots = append(roots, lp.ImportPath)
	}
	sort.Strings(roots)
	for _, root := range roots {
		if err := visit(root); err != nil {
			return nil, err
		}
	}
	return order, nil
}
