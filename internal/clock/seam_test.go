package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoDirectTimeCalls: the packages whose timings the figures bill read
// every clock through this package. A direct time.Now, time.Since or
// time.Sleep in their non-test code is a timing site the model cannot
// see. In the root package the one allowed call is the calendar timestamp
// IterationRecord.Started records.
func TestNoDirectTimeCalls(t *testing.T) {
	for _, dir := range []string{"../exec", "../store", "../collection", "../sim", "../workloads"} {
		if calls := directTimeCalls(t, dir); len(calls) > 0 {
			t.Errorf("%s calls the time package directly; take the run's clock instead:\n  %s", dir, strings.Join(calls, "\n  "))
		}
	}
	root := directTimeCalls(t, "../..")
	if len(root) != 1 || !strings.HasPrefix(root[0], "session.go:") || !strings.HasSuffix(root[0], "time.Now") {
		t.Errorf("root package: direct time calls %v, want only session.go's IterationRecord.Started timestamp", root)
	}
}

// directTimeCalls lists "file:line time.F" for every call of time.Now,
// time.Since or time.Sleep in dir's non-test Go files.
func directTimeCalls(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				local = "time"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				switch sel.Sel.Name {
				case "Now", "Since", "Sleep":
					pos := fset.Position(call.Pos())
					out = append(out, filepath.Base(pos.Filename)+":"+strconv.Itoa(pos.Line)+" time."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return out
}
