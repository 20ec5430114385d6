// Package lint implements helixlint: a suite of repo-specific static
// analyzers that prove, at compile time, the planner/executor/store
// invariants the property fuzzer (internal/fuzz) can only catch when a
// random case happens to trip them at runtime.
//
// The suite encodes six invariants the codebase's hardest bugs have all
// violated:
//
//   - fingerprintfields — every field of an annotated options/plan
//     struct is folded into the plan fingerprint (or the cache's rebind
//     copy), or carries an explicit, reasoned exemption. Makes the PR 7
//     cache-rebind bug class (Fused/FusedSigs silently dropped on a hit)
//     and the PR 5 bug class (a knob leaking past the config token)
//     unrepresentable.
//   - nilemitter — run events are only constructed behind a nil-observer
//     guard, preserving the documented zero-allocation guarantee when no
//     observer is installed.
//   - lockio — a mutex annotated as I/O-free (the store's table, session
//     state) is never held across a disk syscall, a Flush, or the
//     simulated-disk throttle sleep.
//   - plandeterminism — packages annotated deterministic (plan, opt,
//     maxflow) never consult wall clocks, global randomness, or iterate
//     maps into order-sensitive sinks: plan artifacts and fingerprints
//     must be byte-stable.
//   - errtaxonomy — error returns in annotated packages carry the typed
//     taxonomy (wrapped sentinels, *NodeError), never bare leaf
//     fmt.Errorf/errors.New values callers cannot classify.
//   - ctxloop — per-row streaming loops poll their context on a bounded
//     stride (the 1024-row rule), so cancellation lands mid-stream.
//
// The framework is deliberately self-contained — stdlib go/ast +
// go/types only, no golang.org/x/tools dependency — with the same shape
// as go/analysis: an Analyzer runs over one typechecked package (a Pass)
// and returns Diagnostics; fixtures under testdata/src assert expected
// findings with // want "regexp" comments, exactly analysistest-style.
//
// # Directives
//
// Analyzers are driven by source annotations:
//
//	//lint:fingerprint F1 F2   (struct doc) every field must be read in
//	                           one of the named functions
//	//lint:rebind F1 F2        (struct doc) every composite literal of
//	                           this type inside the named functions must
//	                           assign every field
//	//lint:fpexempt <reason>   (field) waives both rules for one field
//	//lint:nolockio            (mutex field) never held across I/O
//	//lint:deterministic       (package doc) enables plandeterminism
//	//lint:errtaxonomy         (package doc) enables errtaxonomy
//	//lint:exempt <analyzer> <reason>  suppresses that analyzer's
//	                           diagnostics on this (or the next) line
//
// Every exemption requires a non-empty reason; the reasons are echoed by
// cmd/helixlint -v so an exemption is always a documented decision.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check run over a typechecked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and exemption
	// directives.
	Name string
	// Doc is a one-line description for the multichecker's usage text.
	Doc string
	// Run reports the analyzer's findings on one package.
	Run func(*Pass) []Diagnostic
}

// Pass hands an analyzer one fully parsed and typechecked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// directives indexes every //lint: comment by file and line.
	directives map[string]map[int][]Directive
	// extraSups accumulates analyzer-recorded suppressions (e.g.
	// fpexempt waivers) between RunSuite drains.
	extraSups []Suppression
}

// Directive is one parsed //lint:<name> <args> comment.
type Directive struct {
	Name string
	Args string
	Pos  token.Position
}

var directiveRe = regexp.MustCompile(`^//lint:(\S+)[ \t]*(.*)$`)

// NewPass assembles a Pass and indexes its directives.
func NewPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info,
		directives: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Directive)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line],
					Directive{Name: m[1], Args: strings.TrimSpace(m[2]), Pos: pos})
			}
		}
	}
	return p
}

// Pos resolves a node's position.
func (p *Pass) Pos(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

// report constructs a Diagnostic at n.
func (p *Pass) report(name string, n ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Pos(n), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// groupDirectives parses the directives attached to a doc or line
// comment group.
func groupDirectives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
				out = append(out, Directive{Name: m[1], Args: strings.TrimSpace(m[2])})
			}
		}
	}
	return out
}

// directive returns the first directive with the given name among the
// comment groups, if any.
func directive(name string, groups ...*ast.CommentGroup) (Directive, bool) {
	for _, d := range groupDirectives(groups...) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// PackageDirective reports whether any file-level doc comment in the
// package carries the named directive.
func (p *Pass) PackageDirective(name string) bool {
	for _, f := range p.Files {
		if _, ok := directive(name, f.Doc); ok {
			return true
		}
		// Also accept the directive anywhere in a file's comment groups
		// that sit above the package clause (build-tag style placement).
		for _, cg := range f.Comments {
			if cg.End() >= f.Package {
				break
			}
			if _, ok := directive(name, cg); ok {
				return true
			}
		}
	}
	return false
}

// exemptionAt returns the //lint:exempt directive covering file:line for
// the named analyzer: one on the line itself or on the line directly
// above.
func (p *Pass) exemptionAt(analyzer, file string, line int) (Directive, bool) {
	byLine := p.directives[file]
	for _, l := range []int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.Name != "exempt" {
				continue
			}
			fields := strings.Fields(d.Args)
			if len(fields) > 0 && fields[0] == analyzer {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// Suppression records one diagnostic silenced by a //lint:exempt
// directive, with the author's reason, for -v echoing.
type Suppression struct {
	Diagnostic Diagnostic
	Reason     string
}

// Suppress lets an analyzer record a directive-based waiver (such as a
// //lint:fpexempt field) so its reason is echoed alongside //lint:exempt
// suppressions.
func (p *Pass) Suppress(analyzer string, n ast.Node, reason, format string, args ...any) {
	p.extraSups = append(p.extraSups, Suppression{
		Diagnostic: p.report(analyzer, n, format, args...),
		Reason:     reason,
	})
}

// Filter applies //lint:exempt directives to a diagnostic list: exempted
// findings move to the suppression list (with their reason), and an
// exemption with no reason is itself converted into a diagnostic — an
// undocumented waiver is a finding.
func (p *Pass) Filter(diags []Diagnostic) (kept []Diagnostic, suppressed []Suppression) {
	for _, d := range diags {
		ex, ok := p.exemptionAt(d.Analyzer, d.Pos.Filename, d.Pos.Line)
		if !ok {
			kept = append(kept, d)
			continue
		}
		reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(ex.Args), d.Analyzer))
		if reason == "" {
			kept = append(kept, Diagnostic{Pos: ex.Pos, Analyzer: d.Analyzer,
				Message: "lint:exempt requires a reason (\"//lint:exempt " + d.Analyzer + " <why>\")"})
			continue
		}
		suppressed = append(suppressed, Suppression{Diagnostic: d, Reason: reason})
	}
	return kept, suppressed
}

// Analyzer names, shared between the Analyzer values and their run
// functions (a var referring back to itself would be an initialization
// cycle) and matched by //lint:exempt directives.
const (
	nameFingerprintFields = "fingerprintfields"
	nameNilEmitter        = "nilemitter"
	nameLockIO            = "lockio"
	namePlanDeterminism   = "plandeterminism"
	nameErrTaxonomy       = "errtaxonomy"
	nameCtxLoop           = "ctxloop"
)

// Suite returns the full helixlint analyzer set, in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		FingerprintFields,
		NilEmitter,
		LockIO,
		PlanDeterminism,
		ErrTaxonomy,
		CtxLoop,
	}
}

// RunSuite runs the given analyzers over one package and returns the
// exemption-filtered findings plus the suppressions, sorted by position.
func RunSuite(p *Pass, analyzers []*Analyzer) ([]Diagnostic, []Suppression) {
	var diags []Diagnostic
	var sups []Suppression
	for _, a := range analyzers {
		found := a.Run(p)
		kept, suppressed := p.Filter(found)
		diags = append(diags, kept...)
		sups = append(sups, suppressed...)
		sups = append(sups, p.extraSups...)
		p.extraSups = nil
	}
	sortDiags(diags)
	sort.Slice(sups, func(i, j int) bool { return diagLess(sups[i].Diagnostic, sups[j].Diagnostic) })
	return diags, sups
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
}

func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
