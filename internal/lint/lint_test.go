package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"helix/internal/lint"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

// Each analyzer's fixture demonstrates at least one caught violation and
// documents the legal shapes next to the illegal ones.

func TestFingerprintFields(t *testing.T) {
	lint.RunFixture(t, fixture("fingerprintfields"), []*lint.Analyzer{lint.FingerprintFields})
}

func TestNilEmitter(t *testing.T) {
	lint.RunFixture(t, fixture("nilemitter"), []*lint.Analyzer{lint.NilEmitter})
}

func TestLockIO(t *testing.T) {
	lint.RunFixture(t, fixture("lockio"), []*lint.Analyzer{lint.LockIO})
}

func TestPlanDeterminism(t *testing.T) {
	lint.RunFixture(t, fixture("plandeterminism"), []*lint.Analyzer{lint.PlanDeterminism})
}

func TestErrTaxonomy(t *testing.T) {
	lint.RunFixture(t, fixture("errtaxonomy"), []*lint.Analyzer{lint.ErrTaxonomy})
}

func TestCtxLoop(t *testing.T) {
	lint.RunFixture(t, fixture("ctxloop"), []*lint.Analyzer{lint.CtxLoop})
}

// TestExemptions checks the waiver mechanics: a reasoned //lint:exempt
// moves the finding to the suppression list with its reason; a
// reasonless one becomes a finding of its own.
func TestExemptions(t *testing.T) {
	diags, sups := lint.RunFixtureResult(t, fixture("exemptions"), []*lint.Analyzer{lint.ErrTaxonomy})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (the reasonless exemption): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "requires a reason") {
		t.Errorf("diagnostic %q does not flag the missing reason", diags[0].Message)
	}
	if len(sups) != 1 {
		t.Fatalf("got %d suppressions, want 1: %v", len(sups), sups)
	}
	if want := "caller wraps into the typed taxonomy"; sups[0].Reason != want {
		t.Errorf("suppression reason = %q, want %q", sups[0].Reason, want)
	}
}

// TestSuiteCatchesInjectedViolations is the injected-violation
// meta-test: every fixture's seeded violation is caught by the full
// suite, and disabling the one responsible analyzer makes the suite miss
// it — each analyzer is load-bearing.
func TestSuiteCatchesInjectedViolations(t *testing.T) {
	suite := lint.Suite()
	for _, a := range suite {
		t.Run(a.Name, func(t *testing.T) {
			dir := fixture(a.Name)
			full, _ := lint.RunFixtureResult(t, dir, suite)
			if countBy(full, a.Name) == 0 {
				t.Fatalf("full suite found no %s violation in its fixture", a.Name)
			}
			var reduced []*lint.Analyzer
			for _, other := range suite {
				if other.Name != a.Name {
					reduced = append(reduced, other)
				}
			}
			remaining, _ := lint.RunFixtureResult(t, dir, reduced)
			if countBy(remaining, a.Name) != 0 {
				t.Fatalf("suite without %s still reports %s findings", a.Name, a.Name)
			}
			if len(remaining) >= len(full) {
				t.Fatalf("disabling %s did not reduce findings (%d -> %d); the fixture violation is not attributable to it",
					a.Name, len(full), len(remaining))
			}
		})
	}
}

func countBy(diags []lint.Diagnostic, analyzer string) int {
	n := 0
	for _, d := range diags {
		if d.Analyzer == analyzer {
			n++
		}
	}
	return n
}

// TestRepoClean runs the full suite over the whole module — the same
// gate CI applies via cmd/helixlint — and demands zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	pkgs, err := lint.Load([]string{filepath.Join("..", "..")}, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		diags, _ := lint.RunSuite(pkg.NewPass(), lint.Suite())
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestLoadDirNamesMissingExportData: an import the go command cannot
// build has no export data, and the load fails naming it rather than
// falling back to type-checking from source.
func TestLoadDirNamesMissingExportData(t *testing.T) {
	_, err := lint.LoadDir(fixture("noexport"))
	if err == nil || !strings.Contains(err.Error(), "no export data for nosuchpkg/missing") {
		t.Fatalf("LoadDir err = %v, want one naming nosuchpkg/missing", err)
	}
}
