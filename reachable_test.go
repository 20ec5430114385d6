package helix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"helix/internal/lint"
)

// reachAllowlist names the declarations under internal/ that no program
// reaches but tests in two or more packages call, so no single package's
// _test.go files can hold them. Keys are "<dir below internal/>.<Name>",
// or "<dir below internal/>.<Type>.<Method>" for a method; each value is
// the one-line reason. An entry that a program reaches, or that fewer
// than two packages' tests call, is stale and fails the test.
var reachAllowlist = map[string]string{
	"core.DAG.MustAddNode":       "builds test DAGs without error plumbing in the core, exec, opt, plan, sim and root package tests",
	"core.DAG.Slice":             "the backward-slice oracle the core and root package tests check pruning against",
	"ml.Sparse":                  "builds test vectors from index maps in the ml, workloads and root package tests",
	"opt.CheckFeasible":          "the OEP constraint oracle the opt and plan tests check every plan against",
	"opt.StreamingOMP.Remaining": "reads the policy's unreserved budget in the opt, exec and root package tests",
	"store.GobCodec":             "the reference encoder the store and workloads codec tests compare values through",
}

// publicAPI names the exported identifiers of the root package that no
// program under cmd/, examples/ or benchmark/ reaches but that the
// library documents for its users. Keys are "<Name>", or "<Type>.<Method>"
// for a method; each value names the README section or golden test that
// documents it. An entry that a program reaches, or that names no
// exported root identifier, is stale and fails the test.
var publicAPI = map[string]string{
	"ErrUnserializable":      `README "Columnar binary codec": what a materialization error of an unregistered type wraps`,
	"NodeError":              `README "Typed errors": the per-operator error Run returns`,
	"NodeReport":             `README "Session state and durability" and "Typed errors": NodeReport.LoadErr`,
	"Session.PlanCacheStats": `README "Planning cache & scheduling": a session's plan-cache hits and misses`,
	"Workflow.Op":            "TestScheduleOutputsBitIdentical (internal/workloads) declares intermediates outputs through it for its golden digests",
	"Workflow.PlanDOT":       `README "Layered architecture"; TestPlanDOTGoldenCensus pins it to testdata/census_plandot.golden`,
}

// TestInternalCodeIsReachable: every package-level func, type, var and
// const and every method in a non-test file under internal/ is reachable
// from non-test code of a program — cmd/, examples/, the benchmark module,
// or the root package's public surface. Every exported root identifier is
// reached from the programs or listed in publicAPI. Code that only tests
// call belongs in the _test.go files of its user; code that nothing calls
// is deleted.
func TestInternalCodeIsReachable(t *testing.T) {
	r := reachability(t, []string{".", "benchmark"}, reachAllowlist, publicAPI)
	if len(r.dead) > 0 {
		t.Errorf("%d declarations that no program reaches; delete them, move them into the _test.go files of their one user, allowlist one under internal/ that tests in two packages call, or list a documented root export in publicAPI:\n  %s",
			len(r.dead), strings.Join(r.dead, "\n  "))
	}
	if len(r.stale) > 0 {
		t.Errorf("stale allowlist entries:\n  %s", strings.Join(r.stale, "\n  "))
	}
	t.Logf("exported root identifiers: %d; publicAPI entries: %d", r.exports, len(publicAPI))
}

// TestReachabilityFixture: the check reports exactly the dead declarations
// and the stale allowlist entries of a tree built to hold each case, so it
// cannot pass everything silently.
func TestReachabilityFixture(t *testing.T) {
	r := reachability(t, []string{"testdata/reach"}, map[string]string{
		"lib.Oracle":  "the lib and app tests both call it",
		"lib.Used":    "stale: the program reaches it",
		"lib.OneTest": "stale: only lib's tests call it",
	}, map[string]string{
		"Documented": "documented",
		"Reached":    "stale: the program reaches it",
		"Missing":    "stale: no such identifier",
	})
	wantDead := []string{
		"fixture.go:14: Undocumented",
		"internal/lib/lib.go:26: lib.Unused",
		"internal/lib/lib.go:29: lib.helper",
		"internal/lib/lib.go:43: lib.Asserted", // not its methods apart
		"internal/lib/lib.go:53: lib.Color",
		"internal/lib/lib.go:56: lib.Red", // the group, once; not Green
		"internal/lib/lib.go:75: lib.Box.Put",
	}
	wantStale := []string{
		"Missing: no such exported root identifier",
		"Reached: a program reaches it",
		"lib.OneTest: tests in 1 package call it (internal/lib); move it into those _test.go files",
		"lib.Used: a program reaches it",
	}
	if !slices.Equal(r.dead, wantDead) {
		t.Errorf("dead:\n  %s\nwant:\n  %s", strings.Join(r.dead, "\n  "), strings.Join(wantDead, "\n  "))
	}
	if !slices.Equal(r.stale, wantStale) {
		t.Errorf("stale:\n  %s\nwant:\n  %s", strings.Join(r.stale, "\n  "), strings.Join(wantStale, "\n  "))
	}
}

// A unit is one node of the reference graph: a package-level func, a
// type, a method, one var or const spec, or a whole const group that uses
// iota. Each package also has an init unit holding its init funcs and
// untyped blank vars; any use of the package reaches it.
type unit struct {
	pkg    *pkgNode
	key    string // the allowlist key
	pos    string // file:line, the file relative to its module root
	bodies []ast.Node
	info   *types.Info
	named  *types.Named // a defined type's type
	recv   *unit        // a method's receiver type
	edges  []*unit
	calls  []*types.Func // interface methods the bodies call
	// reached: from the programs, or from a publicAPI entry; byProgram:
	// from the programs alone.
	reached, byProgram bool
}

type pkgNode struct {
	dir      string // slash path relative to its module root
	internal bool   // dir is internal/ or below it
	root     bool   // the first module's root package
	init     *unit
}

type graph struct {
	units []*unit
	byPos map[token.Pos]*unit // by the position of each declared name
	pkgs  map[*types.Package]*pkgNode
	// ifaces holds, by method name, the interfaces reached code calls
	// that method through; implicit those whose methods count as called
	// without a call in sight (see collectImplicit).
	ifaces, implicit map[string][]types.Type
	mset             map[*types.Named]*types.MethodSet
}

type reach struct {
	dead, stale []string
	exports     int // exported root identifiers
}

// reachability type-checks the modules rooted at roots (each dir holds a
// go.mod; the first one's root package is the library surface) in one
// type universe, walks references from every non-test declaration outside
// internal/ and the root package, then from the publicAPI entries, and
// returns "file:line: key" for each unreached unit under internal/ or in
// the root package that allow or public does not name, and the stale
// entries of both.
func reachability(t *testing.T, roots []string, allow, public map[string]string) reach {
	t.Helper()
	abs := make([]string, len(roots))
	for i, root := range roots {
		a, err := filepath.Abs(root)
		if err != nil {
			t.Fatal(err)
		}
		abs[i] = a
	}
	pkgs, err := lint.Load(abs, []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	g := &graph{byPos: map[token.Pos]*unit{}, pkgs: map[*types.Package]*pkgNode{},
		ifaces: map[string][]types.Type{}, implicit: map[string][]types.Type{}, mset: map[*types.Named]*types.MethodSet{}}
	var r reach
	var code, tests []*lint.Package
	for _, p := range pkgs {
		if isTest(p) {
			tests = append(tests, p)
			continue
		}
		code = append(code, p)
		g.declare(p, moduleRel(abs, p.Dir), p.Dir == abs[0])
		if p.Dir == abs[0] {
			r.exports = countExports(p.Types)
		}
	}
	g.edges()
	g.collectImplicit(code)

	var programs, api []*unit
	for _, u := range g.units {
		if !u.pkg.internal && !u.pkg.root {
			programs = append(programs, u)
		}
	}
	g.walk(programs)
	for _, u := range g.units {
		u.byProgram = u.reached
	}
	publicUnits := map[*unit]bool{}
	for key := range public {
		switch u := g.lookup(key, true); {
		case u == nil || !exported(u):
			r.stale = append(r.stale, key+": no such exported root identifier")
		case u.byProgram:
			r.stale = append(r.stale, key+": a program reaches it")
		default:
			publicUnits[u] = true
			api = append(api, u)
		}
	}
	g.walk(api)

	allowed := map[*unit]string{}
	for key := range allow {
		switch u := g.lookup(key, false); {
		case u == nil:
			r.stale = append(r.stale, key+": no such declaration under internal/")
		case u.reached:
			r.stale = append(r.stale, key+": a program reaches it")
		default:
			allowed[u] = key
		}
	}
	users := g.testUsers(tests, abs, allowed)
	for u, key := range allowed {
		if dirs := users[u]; len(dirs) < 2 {
			r.stale = append(r.stale, key+": tests in "+strconv.Itoa(len(dirs))+" package call it ("+strings.Join(dirs, ", ")+"); move it into those _test.go files")
		}
	}
	for _, u := range g.units {
		if u == u.pkg.init || (u.recv != nil && !u.recv.reached) || allowed[u] != "" {
			continue // an unreached type's methods go with it
		}
		switch {
		case u.pkg.root && exported(u):
			if !u.byProgram && !publicUnits[u] {
				r.dead = append(r.dead, u.pos+": "+u.key)
			}
		case u.pkg.internal || u.pkg.root:
			if !u.reached {
				r.dead = append(r.dead, u.pos+": "+u.key)
			}
		}
	}
	sort.Strings(r.dead)
	sort.Strings(r.stale)
	return r
}

func isTest(p *lint.Package) bool {
	return slices.ContainsFunc(p.Files, func(f *ast.File) bool {
		return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
	})
}

// moduleRel is dir's slash path relative to the innermost module root
// holding it.
func moduleRel(roots []string, dir string) string {
	best := ""
	for _, root := range roots {
		if (dir == root || strings.HasPrefix(dir, root+string(filepath.Separator))) && len(root) > len(best) {
			best = root
		}
	}
	rel, _ := filepath.Rel(best, dir)
	return filepath.ToSlash(rel)
}

// declare makes the units of one non-test package.
func (g *graph) declare(p *lint.Package, dir string, root bool) {
	pkg := &pkgNode{dir: dir, internal: dir == "internal" || strings.HasPrefix(dir, "internal/"), root: root}
	pkg.init = &unit{pkg: pkg, key: "init", info: p.Info}
	g.pkgs[p.Types] = pkg
	g.units = append(g.units, pkg.init)
	prefix := strings.TrimPrefix(dir, "internal/") + "."
	if root {
		prefix = ""
	}
	var methods []*ast.FuncDecl
	for _, f := range p.Files {
		file := filepath.ToSlash(filepath.Join(dir, filepath.Base(p.Fset.Position(f.Pos()).Filename)))
		add := func(names []*ast.Ident, body ast.Node) *unit {
			u := &unit{pkg: pkg, key: prefix + names[0].Name, info: p.Info, bodies: []ast.Node{body},
				pos: file + ":" + strconv.Itoa(p.Fset.Position(names[0].Pos()).Line)}
			for _, n := range names {
				if n.Name != "_" {
					g.byPos[n.Pos()] = u
				}
			}
			g.units = append(g.units, u)
			return u
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					methods = append(methods, d)
					u := add([]*ast.Ident{d.Name}, d)
					u.key = prefix + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				case d.Name.Name == "init":
					pkg.init.bodies = append(pkg.init.bodies, d)
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
						u := add([]*ast.Ident{s.Name}, s)
						if tn := p.Info.Defs[s.Name].(*types.TypeName); !tn.IsAlias() {
							u.named, _ = tn.Type().(*types.Named)
						}
					case *ast.ValueSpec:
						if len(s.Names) == 1 && s.Names[0].Name == "_" {
							if s.Type == nil { // var _ = f(): runs at init
								pkg.init.bodies = append(pkg.init.bodies, s)
							}
							continue // var _ I = T{}: an assertion, not a use
						}
						add(s.Names, s)
					}
				}
			}
		}
	}
	for _, d := range methods {
		recv := p.Info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			g.byPos[d.Name.Pos()].recv = g.byPos[named.Obj().Pos()]
		}
	}
}

// edges links every unit to the units its bodies use: every identifier
// the type checker resolves to a declaration — a method selected on a
// value included — and, for a qualified identifier, the imported
// package's init unit. A declaration's own name and struct fields are
// not uses; comments never are. Interface methods the bodies call are
// kept for the interface rule.
func (g *graph) edges() {
	for _, u := range g.units {
		seen := map[*unit]bool{u: true}
		for _, body := range u.bodies {
			ast.Inspect(body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := u.info.Uses[id].(*types.Func); ok && isInterfaceMethod(fn) {
					u.calls = append(u.calls, fn)
				}
				if v := g.use(u.info.Uses[id]); v != nil && !seen[v] {
					seen[v] = true
					u.edges = append(u.edges, v)
				}
				return true
			})
		}
	}
}

// use is the unit obj names, if any.
func (g *graph) use(obj types.Object) *unit {
	switch o := obj.(type) {
	case nil:
		return nil
	case *types.PkgName:
		if pkg := g.pkgs[o.Imported()]; pkg != nil {
			return pkg.init
		}
		return nil
	case *types.Func:
		obj = o.Origin()
	}
	return g.byPos[obj.Pos()]
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// collectImplicit records, by method name, the interfaces whose methods
// count as called wherever a type that implements them is reached:
//   - every interface a package beyond the modules declares, since that
//     package may call the method on any value that reaches it. Export
//     data holds no function bodies, so the errors package's anonymous
//     interfaces join them by hand;
//   - the unexported methods of the modules' own interfaces. Such a
//     method is a seal: it restricts the interface's implementers to its
//     package, and a type converted to the interface must keep it to
//     compile, though it never runs.
func (g *graph) collectImplicit(pkgs []*lint.Package) {
	const errorsIfaces = `package errors
type (
	unwrapper  interface{ Unwrap() error }
	unwrappers interface{ Unwrap() []error }
	iser       interface{ Is(error) bool }
	aser       interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", errorsIfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	scopes := []*types.Scope{types.Universe, errs.Scope()}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scopes = append(scopes, p.Scope())
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					m := it.Method(i)
					if g.pkgs[tn.Pkg()] == nil || !m.Exported() {
						g.implicit[m.Name()] = append(g.implicit[m.Name()], tn.Type())
					}
				}
			}
		}
	}
}

// walk marks everything reachable from from. A method is reached when
// reached code selects it, and also when its receiver type is reached
// and implements an interface whose same-named method reached code — or
// code beyond the modules — calls. That rule may keep a method no
// program runs; it never drops one that runs.
func (g *graph) walk(from []*unit) {
	var stack, named []*unit
	for _, u := range g.units {
		if u.reached && u.named != nil {
			named = append(named, u)
		}
	}
	mark := func(u *unit) {
		if !u.reached {
			u.reached = true
			stack = append(stack, u)
		}
	}
	for _, u := range from {
		mark(u)
	}
	for {
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range u.edges {
				mark(v)
			}
			for _, fn := range u.calls {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if !slices.ContainsFunc(g.ifaces[fn.Name()], func(t types.Type) bool { return types.Identical(t, recv) }) {
					g.ifaces[fn.Name()] = append(g.ifaces[fn.Name()], recv)
				}
			}
			if u.named != nil {
				named = append(named, u)
			}
		}
		for _, tu := range named {
			ms := g.methods(tu.named)
			for i := range ms.Len() {
				m := ms.At(i).Obj()
				if v := g.use(m); v != nil && !v.reached &&
					(implementsAny(tu.named, g.ifaces[m.Name()]) || implementsAny(tu.named, g.implicit[m.Name()])) {
					mark(v)
				}
			}
		}
		if len(stack) == 0 {
			return
		}
	}
}

// methods is the method set of *T, promoted methods included.
func (g *graph) methods(t *types.Named) *types.MethodSet {
	ms := g.mset[t]
	if ms == nil {
		ms = types.NewMethodSet(types.NewPointer(t))
		g.mset[t] = ms
	}
	return ms
}

// implementsAny reports whether *t implements one of ifaces. A generic
// type, or a generic interface, matches by method name alone.
func implementsAny(t *types.Named, ifaces []types.Type) bool {
	for _, it := range ifaces {
		if t.TypeParams().Len() > 0 {
			return true
		}
		if n, ok := it.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			return true
		}
		if types.Implements(types.NewPointer(t), it.Underlying().(*types.Interface)) {
			return true
		}
	}
	return false
}

// exported reports whether u is an exported root identifier: an exported
// package-level name, or an exported method of an exported type.
func exported(u *unit) bool {
	if !u.pkg.root || u == u.pkg.init {
		return false
	}
	for _, part := range strings.Split(u.key, ".") {
		if !token.IsExported(part) {
			return false
		}
	}
	return true
}

// countExports counts pkg's exported package-level names and the
// exported methods of its exported defined types.
func countExports(pkg *types.Package) int {
	n := 0
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		n++
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					if m.Exported() {
						n++
					}
				}
			}
		}
	}
	return n
}

// lookup finds the unit an allowlist key names: under internal/, or with
// root in the root package.
func (g *graph) lookup(key string, root bool) *unit {
	for _, u := range g.units {
		if u.key == key && u != u.pkg.init && (root && u.pkg.root || !root && u.pkg.internal) {
			return u
		}
	}
	return nil
}

// testUsers lists, for each unit of want, the package directories whose
// _test.go files refer to it. An in-package test re-checks its package's
// files, so its objects are matched to units by declaration position.
func (g *graph) testUsers(tests []*lint.Package, roots []string, want map[*unit]string) map[*unit][]string {
	out := map[*unit][]string{}
	for _, p := range tests {
		dir := moduleRel(roots, p.Dir)
		for _, f := range p.Files {
			if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v := g.use(p.Info.Uses[id]); v != nil && want[v] != "" && !slices.Contains(out[v], dir) {
						out[v] = append(out[v], dir)
					}
				}
				return true
			})
		}
	}
	for _, dirs := range out {
		sort.Strings(dirs)
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
