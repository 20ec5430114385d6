package workloads

import (
	"context"
	"testing"

	"helix"
)

// TestMNISTAccuracyDiagnostic logs the achieved accuracy so tuning
// regressions are visible in verbose runs.
func TestMNISTAccuracyDiagnostic(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), NewMNIST(tiny(), 1).Build())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Values["checked"].(EvalReport)
	t.Logf("mnist accuracy = %.3f", rep.Metrics["accuracy"])
}
