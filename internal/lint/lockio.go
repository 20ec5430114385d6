package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockIO enforces the store/session locking design rule: a mutex field
// annotated `//lint:nolockio` guards in-memory state only and must never
// be held across I/O — a disk syscall (package os/syscall), a
// Flush/Sync, or the simulated-disk throttle's sleep (time.Sleep, or Sleep
// on an internal/clock Clock) — directly or through any chain of
// same-package calls.
//
// The check is a source-order sweep per function: between a Lock/RLock
// on an annotated mutex and its matching Unlock (a deferred Unlock pins
// the mutex to function exit), no reachable call may perform I/O.
var LockIO = &Analyzer{
	Name: nameLockIO,
	Doc:  "//lint:nolockio mutexes must not be held across disk syscalls, Flush, or throttle sleeps",
	Run:  runLockIO,
}

func runLockIO(p *Pass) []Diagnostic {
	annotated := nolockioFields(p)
	if len(annotated) == 0 {
		return nil
	}
	ioFuncs := transitiveIOFuncs(p)
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, sweepLockIO(p, fd, annotated, ioFuncs)...)
		}
	}
	return diags
}

// nolockioFields collects mutex-typed struct fields and package-level
// mutex vars annotated //lint:nolockio, keyed by their types object,
// valued by display name.
func nolockioFields(p *Pass) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, sd := range structDecls(p.Info, p.Files) {
		for _, field := range sd.st.Fields.List {
			if _, ok := directive("nolockio", field.Doc, field.Comment); !ok {
				continue
			}
			for _, name := range field.Names {
				obj := p.Info.Defs[name]
				if obj == nil || !isMutexType(obj.Type()) {
					continue
				}
				display := name.Name
				if sd.obj != nil {
					display = sd.obj.Name() + "." + name.Name
				}
				out[obj] = display
			}
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if _, ok := directive("nolockio", gd.Doc, vs.Doc, vs.Comment); !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := p.Info.Defs[name]
					if obj == nil || !isMutexType(obj.Type()) {
						continue
					}
					out[obj] = name.Name
				}
			}
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// directIO reports whether calling obj performs I/O on its own: any
// os/syscall entry point, time.Sleep or a clock's Sleep (the simulated-disk
// throttle), or a Flush/Sync method.
func directIO(obj *types.Func) bool {
	if obj == nil {
		return false
	}
	if pkg := obj.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "os", "syscall":
			return true
		}
	}
	if isPkgFunc(obj, "time", "Sleep") {
		return true
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if obj.Name() == "Flush" || obj.Name() == "Sync" {
			return true
		}
		if obj.Name() == "Sleep" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "/internal/clock") {
			return true
		}
	}
	return false
}

// transitiveIOFuncs computes the set of package-local functions that
// reach I/O through any call chain, to fixpoint.
func transitiveIOFuncs(p *Pass) map[*types.Func]bool {
	decls := declOf(p.Info, p.Files)
	io := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for obj, fd := range decls {
			if io[obj] || fd.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(p.Info, call)
				if directIO(callee) || io[callee] {
					found = true
				}
				return true
			})
			if found {
				io[obj] = true
				changed = true
			}
		}
	}
	return io
}

// lockOp is one position-ordered lock-relevant occurrence inside a
// function body.
type lockOp struct {
	pos    int // byte offset for ordering
	kind   int // 0 lock, 1 unlock, 2 deferred unlock, 3 io call
	mutex  types.Object
	name   string // mutex display name or callee name for io
	node   ast.Node
	callee *types.Func
}

func sweepLockIO(p *Pass, fd *ast.FuncDecl, annotated map[types.Object]string, ioFuncs map[*types.Func]bool) []Diagnostic {
	var events []lockOp
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if mu, name, kind := mutexOp(p, n.Call, annotated); mu != nil && kind == 1 {
				events = append(events, lockOp{pos: int(n.Pos()), kind: 2, mutex: mu, name: name, node: n})
				return false
			}
		case *ast.CallExpr:
			if mu, name, kind := mutexOp(p, n, annotated); mu != nil {
				events = append(events, lockOp{pos: int(n.Pos()), kind: kind, mutex: mu, name: name, node: n})
				return true
			}
			callee := calleeFunc(p.Info, n)
			if directIO(callee) || ioFuncs[callee] {
				events = append(events, lockOp{pos: int(n.Pos()), kind: 3, name: callee.FullName(), node: n, callee: callee})
			}
		}
		return true
	})
	// ast.Inspect is already source-ordered within a file, so events are
	// position-sorted.
	held := make(map[types.Object]string)
	var diags []Diagnostic
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.mutex] = ev.name
		case 1:
			delete(held, ev.mutex)
		case 2:
			// Deferred unlock: the mutex stays held until function exit.
		case 3:
			for _, name := range held {
				diags = append(diags, p.report(nameLockIO, ev.node,
					"mutex %s (//lint:nolockio) held across call to %s, which performs I/O",
					name, ev.name))
			}
		}
	}
	return diags
}

// mutexOp recognises X.mu.Lock()/RLock() (kind 0) and
// X.mu.Unlock()/RUnlock() (kind 1) on an annotated mutex field.
func mutexOp(p *Pass, call *ast.CallExpr, annotated map[types.Object]string) (types.Object, string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", 0
	}
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 0
	case "Unlock", "RUnlock":
		kind = 1
	default:
		return nil, "", 0
	}
	switch inner := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		s, ok := p.Info.Selections[inner]
		if !ok {
			return nil, "", 0
		}
		if name, ok := annotated[s.Obj()]; ok {
			return s.Obj(), name, kind
		}
	case *ast.Ident:
		obj := p.Info.Uses[inner]
		if name, ok := annotated[obj]; ok && obj != nil {
			return obj, name, kind
		}
	}
	return nil, "", 0
}
