package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches analysistest-style expectation comments:
//
//	code() // want "first regexp" "second regexp"
var wantRe = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)

var wantArgRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// RunFixture loads the fixture package in dir, runs the analyzers over
// it, and asserts the diagnostics exactly match the fixture's
// // want "regexp" comments — every want matched by some diagnostic on
// its line, every diagnostic claimed by some want.
func RunFixture(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	diags, _ := RunFixtureResult(t, dir, analyzers)
	CheckWants(t, dir, diags)
}

// RunFixtureResult loads and analyzes the fixture without asserting
// expectations, returning the raw findings for custom checks (the
// injected-violation meta-test).
func RunFixtureResult(t *testing.T, dir string, analyzers []*Analyzer) ([]Diagnostic, []Suppression) {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, sups := RunSuite(pkg.NewPass(), analyzers)
	return diags, sups
}

// CheckWants matches diagnostics against the fixture's want comments.
func CheckWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants, err := collectWants(dir)
	if err != nil {
		t.Fatalf("collecting want comments in %s: %v", dir, err)
	}
	for i := range diags {
		d := &diags[i]
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// collectWants re-parses the fixture sources for want comments. It works
// on the raw package (not an existing Pass) so meta-tests can call it
// against any diagnostic list.
func collectWants(dir string) ([]*expectation, error) {
	pkg, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants, nil
}

// LoadDir parses and typechecks every non-test .go file directly in dir
// as a single package. Used for testdata fixtures, which `go list ./...`
// deliberately skips; their imports are listed in one go list call.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l := newLoader()
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, f := range files {
		for _, s := range f.Imports {
			if p, _ := strconv.Unquote(s.Path.Value); !slices.Contains(imports, p) {
				imports = append(imports, p)
			}
		}
	}
	if len(imports) > 0 {
		if err := l.list(dir, imports, false); err != nil {
			return nil, err
		}
	}
	if _, err := l.checkModules(false); err != nil {
		return nil, err
	}
	return l.check("fixture/"+filepath.Base(dir), dir, files, l, false)
}
