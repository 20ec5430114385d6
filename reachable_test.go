package helix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names the declarations under internal/ that no program
// reaches but tests in two or more packages call, so no single package's
// _test.go files can hold them. Keys are "<dir below internal/>.<Name>";
// each value is the one-line reason. An entry that a program reaches, or
// that fewer than two packages' tests call, is stale and fails the test.
var reachAllowlist = map[string]string{
	"ml.Sparse":         "builds test vectors from index maps in the ml, workloads and root package tests",
	"opt.CheckFeasible": "the OEP constraint oracle the opt and plan tests check every plan against",
	"store.GobCodec":    "the reference encoder the store and workloads codec tests compare values through",
}

// TestInternalCodeIsReachable: every package-level func, type, var and
// const in a non-test file under internal/ is reachable from non-test code
// of a program — the root package, cmd/, examples/ or the benchmark
// module. Code that only tests call belongs in the _test.go files of its
// user; code that nothing calls is deleted.
func TestInternalCodeIsReachable(t *testing.T) {
	dead, stale := reachability(t, []string{".", "benchmark"}, reachAllowlist)
	if len(dead) > 0 {
		t.Errorf("%d declarations under internal/ that no program reaches; delete them, move them into the _test.go files of their one user, or allowlist one that tests in two packages call:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("stale allowlist entries:\n  %s", strings.Join(stale, "\n  "))
	}
}

// TestReachabilityFixture: the check reports exactly the dead declarations
// and the stale allowlist entries of a tree built to hold each case, so it
// cannot pass everything silently.
func TestReachabilityFixture(t *testing.T) {
	dead, stale := reachability(t, []string{"testdata/reach"}, map[string]string{
		"lib.Oracle":  "the lib and app tests both call it",
		"lib.Used":    "stale: the program reaches it",
		"lib.OneTest": "stale: only lib's tests call it",
	})
	wantDead := []string{
		"internal/lib/lib.go:19: lib.Unused",
		"internal/lib/lib.go:22: lib.helper",
		"internal/lib/lib.go:35: lib.Asserted",
		"internal/lib/lib.go:43: lib.Color",
		"internal/lib/lib.go:46: lib.Red", // the group, once; not Green
	}
	wantStale := []string{
		"lib.OneTest: tests in 1 package call it (internal/lib); move it into those _test.go files",
		"lib.Used: a program reaches it",
	}
	if !slices.Equal(dead, wantDead) {
		t.Errorf("dead:\n  %s\nwant:\n  %s", strings.Join(dead, "\n  "), strings.Join(wantDead, "\n  "))
	}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale:\n  %s\nwant:\n  %s", strings.Join(stale, "\n  "), strings.Join(wantStale, "\n  "))
	}
}

// A unit is one node of the reference graph: a package-level func, a type
// together with all its methods (there is no type-checking, so a reached
// type keeps every method), one var or const spec, or a whole const group
// that uses iota. Each package also has an init unit holding its init
// funcs and untyped blank vars; any use of the package reaches it.
type unit struct {
	pkg     *pkgInfo
	name    string // the first name declared; "init" for the init unit
	pos     string // file:line, the file relative to its module root
	bodies  []ast.Node
	files   []*fileInfo // the file each body sits in
	edges   []*unit
	reached bool
}

type pkgInfo struct {
	dir      string // slash path relative to its module root
	internal bool   // dir is internal/ or below it
	names    map[string]*unit
	init     *unit
}

type fileInfo struct {
	pkg     *pkgInfo
	path    string // slash path relative to its module root
	dir     string
	test    bool
	file    *ast.File
	imports map[string]string // local name → import path
	top     map[any]bool      // the file's package-level FuncDecl/TypeSpec/ValueSpec nodes
}

type graph struct {
	pkgs  map[string]*pkgInfo // by import path
	units []*unit
	files []*fileInfo
}

// reachability parses the modules rooted at roots (each dir holds a
// go.mod), walks references from every non-test declaration outside
// internal/, and returns "file:line: pkg.Name" for each unreached unit
// under internal/ that allow does not name, and the stale entries of
// allow.
func reachability(t *testing.T, roots []string, allow map[string]string) (dead, stale []string) {
	t.Helper()
	g := &graph{pkgs: map[string]*pkgInfo{}}
	fset := token.NewFileSet()
	for _, root := range roots {
		if err := g.parse(fset, root, modulePath(t, root)); err != nil {
			t.Fatal(err)
		}
	}
	g.declare(fset)
	for _, u := range g.units {
		seen := map[*unit]bool{}
		for i, body := range u.bodies {
			g.refs(u.files[i], body, func(v *unit) {
				if !seen[v] {
					seen[v] = true
					u.edges = append(u.edges, v)
				}
			})
		}
	}

	var stack []*unit
	for _, u := range g.units {
		if !u.pkg.internal {
			u.reached = true
			stack = append(stack, u)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range u.edges {
			if !v.reached {
				v.reached = true
				stack = append(stack, v)
			}
		}
	}

	allowed := map[*unit]string{}
	for key := range allow {
		switch u := g.lookup(key); {
		case u == nil:
			stale = append(stale, key+": no such declaration under internal/")
		case u.reached:
			stale = append(stale, key+": a program reaches it")
		default:
			allowed[u] = key
		}
	}
	users := g.testUsers(allowed)
	for u, key := range allowed {
		if dirs := users[u]; len(dirs) < 2 {
			stale = append(stale, key+": tests in "+strconv.Itoa(len(dirs))+" package call it ("+strings.Join(dirs, ", ")+"); move it into those _test.go files")
		}
	}
	for _, u := range g.units {
		if u.pkg.internal && u != u.pkg.init && !u.reached && allowed[u] == "" {
			dead = append(dead, u.pos+": "+u.key())
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// parse reads every .go file of the module at root, skipping testdata,
// hidden directories and nested modules.
func (g *graph) parse(fset *token.FileSet, root, mod string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is its own root
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := path.Dir(rel)
		test := strings.HasSuffix(p, "_test.go")
		ipath := path.Join(mod, dir)
		if test && strings.HasSuffix(f.Name.Name, "_test") {
			ipath += "_test" // an external test package
		}
		pkg := g.pkgs[ipath]
		if pkg == nil {
			pkg = &pkgInfo{dir: dir, internal: dir == "internal" || strings.HasPrefix(dir, "internal/"), names: map[string]*unit{}}
			pkg.init = &unit{pkg: pkg, name: "init"}
			g.pkgs[ipath] = pkg
			g.units = append(g.units, pkg.init)
		}
		top := map[any]bool{}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, s := range gd.Specs {
					top[s] = true
				}
			} else {
				top[d] = true
			}
		}
		g.files = append(g.files, &fileInfo{pkg: pkg, path: rel, dir: dir, test: test, file: f, imports: imports(f), top: top})
		return nil
	})
}

// declare makes the units of every non-test file and records which names
// each package declares; methods join their receiver type's unit.
func (g *graph) declare(fset *token.FileSet) {
	type method struct {
		recv string
		decl *ast.FuncDecl
		fi   *fileInfo
	}
	var methods []method
	for _, fi := range g.files {
		if fi.test {
			continue
		}
		pkg := fi.pkg
		add := func(names []*ast.Ident, body ast.Node) {
			pos := fi.path + ":" + strconv.Itoa(fset.Position(names[0].Pos()).Line)
			u := &unit{pkg: pkg, name: names[0].Name, pos: pos,
				bodies: []ast.Node{body}, files: []*fileInfo{fi}}
			for _, n := range names {
				if n.Name != "_" {
					pkg.names[n.Name] = u
				}
			}
			g.units = append(g.units, u)
		}
		toInit := func(body ast.Node) {
			pkg.init.bodies = append(pkg.init.bodies, body)
			pkg.init.files = append(pkg.init.files, fi)
		}
		for _, d := range fi.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					methods = append(methods, method{recvName(d.Recv.List[0].Type), d, fi})
				case d.Name.Name == "init":
					toInit(d)
				default:
					add([]*ast.Ident{d.Name}, d)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				if d.Tok == token.CONST && usesIota(d) {
					var names []*ast.Ident
					for _, s := range d.Specs {
						names = append(names, s.(*ast.ValueSpec).Names...)
					}
					add(names, d)
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add([]*ast.Ident{s.Name}, s)
					case *ast.ValueSpec:
						if len(s.Names) == 1 && s.Names[0].Name == "_" {
							if s.Type == nil { // var _ = f(): runs at init
								toInit(s)
							}
							continue // var _ I = T{}: an assertion, not a use
						}
						add(s.Names, s)
					}
				}
			}
		}
	}
	for _, m := range methods {
		if u := m.fi.pkg.names[m.recv]; u != nil {
			u.bodies = append(u.bodies, m.decl)
			u.files = append(u.files, m.fi)
		}
	}
}

// key is the allowlist key: the package's directory below internal/ and
// the name.
func (u *unit) key() string {
	return strings.TrimPrefix(u.pkg.dir, "internal/") + "." + u.name
}

// lookup finds the internal unit an allowlist key names.
func (g *graph) lookup(key string) *unit {
	dir, name, ok := strings.Cut(key, ".")
	if !ok {
		return nil
	}
	for _, pkg := range g.pkgs {
		if u := pkg.names[name]; pkg.internal && u != nil && u.key() == dir+"."+name {
			return u
		}
	}
	return nil
}

// testUsers lists, for each unit of want, the package directories whose
// _test.go files refer to it.
func (g *graph) testUsers(want map[*unit]string) map[*unit][]string {
	out := map[*unit][]string{}
	for _, fi := range g.files {
		if !fi.test {
			continue
		}
		g.refs(fi, fi.file, func(v *unit) {
			if _, ok := want[v]; ok && !slices.Contains(out[v], fi.dir) {
				out[v] = append(out[v], fi.dir)
			}
		})
	}
	for _, dirs := range out {
		sort.Strings(dirs)
	}
	return out
}

// refs calls use for every unit body refers to: a bare identifier that no
// local declaration shadows and that one of its package's declarations
// has as a name, or pkg.Name for an imported package. A declaration's own
// name, a struct literal's field keys and a selector's field or method
// name are not uses; comments never are.
func (g *graph) refs(fi *fileInfo, body ast.Node, use func(*unit)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl: // a method's name could be mistaken for a func's
			if n.Recv != nil {
				ast.Inspect(n.Recv, walk)
			}
			ast.Inspect(n.Type, walk)
			if n.Body != nil {
				ast.Inspect(n.Body, walk)
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil && fi.pkg.names[id.Name] == nil {
				if pkg := g.pkgs[fi.imports[id.Name]]; pkg != nil {
					if u := pkg.names[n.Sel.Name]; u != nil {
						use(u)
					}
					use(pkg.init)
					return false
				}
			}
			ast.Inspect(n.X, walk)
			return false // Sel is a field or method: covered by its type
		case *ast.CompositeLit:
			if n.Type != nil {
				ast.Inspect(n.Type, walk)
			}
			_, isMap := n.Type.(*ast.MapType)
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if _, bare := kv.Key.(*ast.Ident); !bare || isMap {
						ast.Inspect(kv.Key, walk)
					}
					ast.Inspect(kv.Value, walk)
					continue
				}
				ast.Inspect(elt, walk)
			}
			return false
		case *ast.Ident:
			if n.Obj != nil && !fi.top[n.Obj.Decl] {
				return false // a local
			}
			if u := fi.pkg.names[n.Name]; u != nil {
				use(u)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// imports maps each import's local name in f to its path. An import
// without a name is known by its last path element, which is the package
// name throughout this repository.
func imports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, s := range f.Imports {
		p, _ := strconv.Unquote(s.Path.Value)
		name := path.Base(p)
		if s.Name != nil {
			name = s.Name.Name
		}
		out[name] = p
	}
	return out
}

// recvName is the base type name of a method receiver.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// modulePath reads the module line of dir's go.mod.
func modulePath(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("%s/go.mod has no module line", dir)
	return ""
}
