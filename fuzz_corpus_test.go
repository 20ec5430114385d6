package helix_test

import (
	"context"
	"path/filepath"
	"testing"

	"helix/internal/fuzz"
)

// TestFuzzRegressionCorpus replays every committed corpus case under
// testdata/fuzz through the full five-invariant harness
// (internal/fuzz). The corpus holds minimized cases from past fuzz
// failures plus seed cases pinning the steady-state plan-cache behavior
// (cold solves, then a full fingerprint hit) — each one a scenario that must keep
// passing. cmd/helixfuzz appends new entries here when a fuzz run
// fails.
func TestFuzzRegressionCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fuzz corpus cases under testdata/fuzz")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			v, err := fuzz.Replay(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("corpus case regressed: %s", v)
			}
		})
	}
}
