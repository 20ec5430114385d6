package lint

import (
	"go/ast"
	"go/types"
)

// CtxLoop enforces the 1024-row cancellation rule: inside a function or
// function literal that takes a context, a loop ranging over a row
// stream must poll the context — a ctx.Err() / ctx.Done() call somewhere
// in the body, typically on a bounded stride. A row stream is an
// iter.Seq-shaped func value, a channel, or — the shape of the push
// executor's one row loop, exec.driveRows — a slice whose loop body hands
// rows to a sink: a call of a func-typed parameter. Without the poll, a
// cancelled run streams every remaining row before noticing.
var CtxLoop = &Analyzer{
	Name: nameCtxLoop,
	Doc:  "per-row streaming loops must poll ctx on a bounded stride",
	Run:  runCtxLoop,
}

func runCtxLoop(p *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sinks := sinkParams(p, fd)
			// A literal inherits its enclosing function's context and may
			// bring its own.
			var visit func(ft *ast.FuncType, body *ast.BlockStmt, hasCtx bool)
			visit = func(ft *ast.FuncType, body *ast.BlockStmt, hasCtx bool) {
				hasCtx = hasCtx || hasContextParam(p, ft)
				ast.Inspect(body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						visit(lit.Type, lit.Body, hasCtx)
						return false
					}
					rng, ok := n.(*ast.RangeStmt)
					if ok && hasCtx && isStreamRange(p, rng, sinks) && !pollsContext(p, rng.Body) {
						diags = append(diags, p.report(nameCtxLoop, rng,
							"streaming loop never polls ctx; check ctx.Err() on a bounded stride (rowCheckInterval)"))
					}
					return true
				})
			}
			visit(fd.Type, fd.Body, false)
		}
	}
	return diags
}

// sinkParams collects the func-typed parameters of fd and of the
// function literals inside it: the values a row loop pushes into.
func sinkParams(p *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	sinks := make(map[types.Object]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		if ft, ok := n.(*ast.FuncType); ok && ft.Params != nil {
			for _, field := range ft.Params.List {
				for _, name := range field.Names {
					if _, ok := p.Info.TypeOf(name).Underlying().(*types.Signature); ok {
						sinks[p.Info.Defs[name]] = true
					}
				}
			}
		}
		return true
	})
	return sinks
}

func isContextType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func hasContextParam(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isStreamRange reports whether the range target is a row stream: an
// iter.Seq-shaped func (single func(...) bool parameter, no results), a
// channel, or a slice whose loop body calls one of sinks.
func isStreamRange(p *Pass, rng *ast.RangeStmt, sinks map[types.Object]bool) bool {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Slice:
		pushes := false
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && sinks[p.Info.Uses[id]] {
					pushes = true
				}
			}
			return !pushes
		})
		return pushes
	case *types.Signature:
		if t.Params().Len() != 1 || t.Results().Len() != 0 {
			return false
		}
		yield, ok := t.Params().At(0).Type().Underlying().(*types.Signature)
		return ok && yield.Results().Len() == 1 &&
			types.Identical(yield.Results().At(0).Type(), types.Typ[types.Bool])
	}
	return false
}

// pollsContext reports whether body calls Err/Done on a context value.
func pollsContext(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
				if tv, ok := p.Info.Types[sel.X]; ok && isContextType(tv.Type) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
