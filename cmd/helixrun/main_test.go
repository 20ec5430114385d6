package main

import (
	"bytes"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"helix"
)

func runBin(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run helixrun %v: %v\n%s", args, err, out.String())
	}
	return out.String(), code
}

// buildBin builds helixrun into a temporary directory.
func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "helixrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke drives the built binary end to end: a short census series
// exits 0 and prints the iteration table; -paper prints the paper's tables
// (one iteration per series, to stay quick); flag combinations that used to
// do nothing silently (-tenant without -shared, -shared without -dir) are
// usage errors; and the flags that left with WithScheduler and
// WithPlanCache are unknown.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to the go tool")
	}
	bin := buildBin(t)

	out, code := runBin(t, bin, "-workload", "census", "-iters", "2")
	if code != 0 {
		t.Fatalf("census series: exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"workload=census system=helix-opt",
		"iter  type  seconds",
		"\n0     ", "\n1     ",
		"outputs of the final iteration:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("census series output missing %q:\n%s", want, out)
		}
	}

	out, code = runBin(t, bin, "-paper", "-cost", "10", "-iters", "1")
	if code != 0 {
		t.Fatalf("-paper: exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"HELIX paper tables — model seconds (scale 1, cost 10, seed 1, iters 1)",
		"Figure 5 — census", "Figure 9 — mnist", "Figure 10 — census: HELIX OPT heap", "Ablation — program slicing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-paper output missing %q:\n%s", want, out)
		}
	}

	shared := t.TempDir()
	if out, code := runBin(t, bin, "-iters", "1", "-shared", "-dir", shared, "-tenant", "alice"); code != 0 ||
		!strings.Contains(out, "tenant[alice]=") {
		t.Fatalf("shared series: exit %d, want 0 and a tenant[alice] line\n%s", code, out)
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"tenant without shared", []string{"-tenant", "alice"}, "-tenant alice needs -shared"},
		{"shared without dir", []string{"-shared"}, "-shared needs -dir"},
		{"paper with a series flag", []string{"-paper", "-workload", "nlp"}, "-paper takes only -scale, -cost, -seed and -iters, not -workload"},
		{"removed -sched", []string{"-sched", "fifo"}, "flag provided but not defined: -sched"},
		{"removed -plancache", []string{"-plancache=false"}, "flag provided but not defined: -plancache"},
	} {
		out, code := runBin(t, bin, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", tc.name, code, out)
		}
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") {
			t.Errorf("%s: output lacks %q or the usage text:\n%s", tc.name, tc.want, out)
		}
		if strings.Contains(out, "workload=") {
			t.Errorf("%s: the series ran anyway:\n%s", tc.name, out)
		}
	}
}

// TestSeriesRunsOnlyItsIterations: printing the final outputs reads the
// last iteration's result instead of running the workflow again, so a
// two-iteration series leaves a reopened session at iteration 2.
func TestSeriesRunsOnlyItsIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to the go tool")
	}
	bin := buildBin(t)
	dir := t.TempDir()
	out, code := runBin(t, bin, "-workload", "census", "-iters", "2", "-dir", dir)
	if code != 0 {
		t.Fatalf("census series: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "outputs of the final iteration:\n  ") {
		t.Errorf("no outputs printed after the table:\n%s", out)
	}
	sess, err := helix.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Iteration(); got != 2 {
		t.Errorf("reopened session at iteration %d, want 2 (one per series iteration)", got)
	}
}

// TestFailedLoadWarns: a series rerun over a -dir store whose artifacts
// each have one bit flipped still completes, prints one stderr warning per
// failed load naming the node and the artifact's key, and marks those
// nodes' -v rows.
func TestFailedLoadWarns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to the go tool")
	}
	bin := buildBin(t)
	dir := t.TempDir()
	if out, code := runBin(t, bin, "-workload", "census", "-iters", "1", "-dir", dir); code != 0 {
		t.Fatalf("first series: exit %d\n%s", code, out)
	}
	artifacts, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(artifacts) == 0 {
		t.Fatalf("no artifacts in %s (%v)", dir, err)
	}
	keys := map[string]bool{}
	for _, path := range artifacts {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 1
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		keys[strings.TrimSuffix(filepath.Base(path), ".gob")] = true
	}

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-workload", "census", "-iters", "1", "-dir", dir, "-v")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rerun over flipped artifacts: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	warning := regexp.MustCompile(`^helixrun: warning: iteration 0: node (\S+): .*"([0-9a-f]{64})"`)
	warned := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		m := warning.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("stderr line is not a failed-load warning naming node and key: %q", line)
			continue
		}
		if !keys[m[2]] {
			t.Errorf("warning names key %s, which is no flipped artifact", m[2])
		}
		warned[m[1]] = true
	}
	if len(warned) == 0 {
		t.Fatalf("no failed-load warning on stderr:\n%s", stderr.String())
	}
	marked := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(line, "  load failed") {
			marked[f[0]] = true
		}
	}
	if !maps.Equal(marked, warned) {
		t.Errorf("-v rows marked load failed %v, warnings name %v\n%s", marked, warned, stdout.String())
	}
}
