package workloads

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"helix"
	"helix/internal/store"
)

// scheduleDigests pins, bit for bit, what the census and MNIST schedules
// compute: a SHA-256 over every output of every iteration, encoded with
// store.BinaryCodec. The learners' intermediates are declared outputs too
// (the census LR's probabilities; MNIST's projection and softmax
// predictions), so a change in any internal/ml kernel's rounding shows up
// here even where the final metric would not move. Both sessions recompute
// everything on every iteration, so MNIST's projection seeds — a fresh
// instance's run counter — are 1…10 whatever the host's timing.
//
// The digests were recorded with the closure-based internal/ml kernels
// that preceded the concrete ones; a kernel change must reproduce them.
var scheduleDigests = map[string]string{
	"census": "b25b3bc2271cf27dab7f6bed62fbfac6cc24f2b2babf49215d9ee4190383bd0c",
	"mnist":  "cd1b5467a7e59cbfcf2f9c6a91d0f985cb2edd4aa11038c54fbdd33c66f82b6e",
}

func TestScheduleOutputsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full schedules are slow")
	}
	for _, tc := range []struct {
		wl    Workload
		extra []string // intermediates declared outputs for the digest
	}{
		{NewCensus(Scale{Rows: 1}, 1), []string{"predictions"}},
		{NewMNIST(Scale{Rows: 1}, 1), []string{"rffFeatures", "digitPred"}},
	} {
		t.Run(tc.wl.Name(), func(t *testing.T) {
			got := scheduleDigest(t, tc.wl, tc.extra)
			if want := scheduleDigests[tc.wl.Name()]; got != want {
				t.Fatalf("schedule digest %s, want %s", got, want)
			}
		})
	}
}

func scheduleDigest(t *testing.T, wl Workload, extra []string) string {
	t.Helper()
	ctx := context.Background()
	sess, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyNever), helix.WithReuse(false))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sha256.New()
	seq := wl.Sequence()
	for it := range seq {
		if it > 0 {
			wl.Mutate(it, seq[it])
		}
		wf := wl.Build()
		for _, name := range extra {
			wf.Op(name).IsOutput()
		}
		res, err := sess.Run(ctx, wf)
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		names := make([]string, 0, len(res.Values))
		for name := range res.Values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b, err := store.BinaryCodec{}.Encode(res.Values[name])
			if err != nil {
				t.Fatalf("iteration %d: encode %s: %v", it, name, err)
			}
			fmt.Fprintf(h, "%d %s %d\n", it, name, len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
