package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// TestSmoke drives the built binary end to end: a short census series
// exits 0 and prints the iteration table; flag combinations that used to
// do nothing silently (-tenant without -shared, -shared without -dir) are
// usage errors; and the flags that left with WithScheduler and
// WithPlanCache are unknown.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to the go tool")
	}
	bin := filepath.Join(t.TempDir(), "helixrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

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
