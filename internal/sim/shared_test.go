package sim

import (
	"context"
	"fmt"
	"os"
	"testing"

	"helix"
	"helix/internal/clock"
	"helix/internal/opt"
	"helix/internal/workloads"
)

// TestSharedWarmStart is the cross-session reuse claim on model time:
// sessions attached to one shared store after a cold session published
// census answer their first run from the store and the shared plan cache
// — a full fingerprint hit, no max-flow solve, no computed operator — for
// at most half the cold session's bill; they publish nothing new; and a
// session running the first edit of the schedule recomputes only what the
// edit changed.
func TestSharedWarmStart(t *testing.T) {
	series, err := RunSharedWarmStart(context.Background(), census, paperScale, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cold := series.Cold
	if cold.Computes == 0 {
		t.Fatalf("cold session computed nothing (plan %s)", cold.PlanCache)
	}
	for _, w := range series.Warm {
		if w.PlanCache != "hit" || w.Solves != 0 || w.Computes != 0 {
			t.Errorf("warm session %d: plan %q, %d solves, %d computed: want a hit, 0, 0", w.Session, w.PlanCache, w.Solves, w.Computes)
		}
		if !(2*w.Seconds <= cold.Seconds) {
			t.Errorf("warm session %d billed %.4fs against cold %.4fs: want at most half", w.Session, w.Seconds, cold.Seconds)
		}
	}
	if series.ArtifactsAfter != series.Artifacts {
		t.Errorf("warm sessions grew the store from %d to %d artifacts: shared artifacts must be stored once", series.Artifacts, series.ArtifactsAfter)
	}
	if !(series.Suffix.Computes < cold.Computes) {
		t.Errorf("suffix session computed %d operators, cold %d: prefix sharing failed", series.Suffix.Computes, cold.Computes)
	}
}

// SharedRun captures one session's run against a shared artifact store:
// its model seconds, how its plan was obtained, how many max-flow solves
// the plan cost, and how many operators it computed. The Solves delta is the
// cross-session plan-cache claim in its sharpest form — a warm session's
// first plan must be a full hit with zero solves.
type SharedRun struct {
	Session   int
	Seconds   float64
	PlanCache string
	Solves    int64
	Computes  int
}

// SharedSeries is the outcome of RunSharedWarmStart: one cold session
// that computes and publishes everything, warm sessions that rerun the
// identical workflow, and one suffix session that reruns a mutated
// variant sharing the workflow's prefix.
type SharedSeries struct {
	// Cold is session 0's first run: an empty store, so every live node
	// computes and the intermediates are published under their chain
	// signatures.
	Cold SharedRun
	// Warm are later sessions' first runs of the identical workflow:
	// everything answers from the shared store and the shared plan cache.
	Warm []SharedRun
	// Suffix is a session running the workload's first mutation: its DAG
	// shares the unchanged prefix with the published artifacts, so only
	// the mutated suffix computes.
	Suffix SharedRun
	// Artifacts counts the store's artifacts after the cold session
	// settled; ArtifactsAfter re-counts after every other session ran.
	// Equality of the two counts is the write-once dedup claim: warm
	// sessions publish nothing new.
	Artifacts      int
	ArtifactsAfter int
}

// RunSharedWarmStart drives the cross-session reuse scenario on a model
// clock: sessions+1 sessions attach to one shared store in a temporary
// directory and run the named workload. Session 0 runs it twice — the
// cold publish, then a settle run that caches the steady-state plan — and
// each of the remaining sessions runs it once, warm. A final session
// applies the workload's first scheduled mutation and runs that, so the
// series also measures prefix sharing under change.
func RunSharedWarmStart(ctx context.Context, name string, scale workloads.Scale, seed int64, sessions int) (*SharedSeries, error) {
	if sessions < 2 {
		return nil, fmt.Errorf("sim: shared warm start needs at least 2 sessions, got %d", sessions)
	}
	dir, err := os.MkdirTemp("", "helix-shared-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx = clock.With(ctx, newModel(HelixOpt))
	shared, err := helix.OpenSharedStore(dir)
	if err != nil {
		return nil, err
	}
	defer shared.Close()

	var tally runTally
	// One run of one session: fresh workload instance (mutations are
	// stateful), fresh session attached to the shared store under its own
	// tenant label, paper-faithful inline materialization so the cold
	// session's publish cost is on its bill.
	runOnce := func(i int, mutate bool) (SharedRun, error) {
		wl, err := NewWorkload(name, scale, seed)
		if err != nil {
			return SharedRun{}, err
		}
		runs := 1
		if i == 0 {
			runs = 2 // cold publish + settle (caches the steady-state plan)
		}
		sess, err := helix.Open("", helix.WithSharedStore(shared),
			helix.WithTenant(fmt.Sprintf("tenant-%d", i)),
			helix.WithDiskThroughput(PaperDiskBytesPerSec),
			helix.WithObserver(tally.observe))
		if err != nil {
			return SharedRun{}, err
		}
		defer sess.Close()
		if mutate {
			seq := wl.Sequence()
			if len(seq) > 1 {
				wl.Mutate(1, seq[1])
			}
		}
		var first SharedRun
		for r := 0; r < runs; r++ {
			tally.reset()
			before := opt.SolveCount()
			out, err := sess.Run(ctx, wl.Build())
			if err != nil {
				return SharedRun{}, fmt.Errorf("sim: shared session %d run %d: %w", i, r, err)
			}
			if r > 0 {
				continue
			}
			first = SharedRun{Session: i, Seconds: out.Wall.Seconds(), Solves: opt.SolveCount() - before}
			if p := tally.plan; p != nil {
				first.PlanCache, first.Computes = p.Outcome.String(), p.Compute
			}
		}
		return first, nil
	}

	res := &SharedSeries{}
	if res.Cold, err = runOnce(0, false); err != nil {
		return nil, err
	}
	res.Artifacts = shared.Artifacts()
	for i := 1; i < sessions; i++ {
		warm, err := runOnce(i, false)
		if err != nil {
			return nil, err
		}
		res.Warm = append(res.Warm, warm)
	}
	res.ArtifactsAfter = shared.Artifacts()
	if res.Suffix, err = runOnce(sessions, true); err != nil {
		return nil, err
	}
	return res, nil
}
