package helix_test

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"helix"
	"helix/internal/sim"
	"helix/internal/workloads"
)

func init() {
	// Idempotent with the package-helix test init: identical
	// type-and-name registrations are no-ops.
	helix.RegisterType("")
	helix.RegisterType(0)
	helix.RegisterType(0.0)
	helix.RegisterType([]string(nil))
}

// optWorkflow builds the session-test pipeline (sleepy DPR→L/I→PPR) for
// the external test package; calls counts operator executions.
func optWorkflow(calls *atomic.Int64, learnerParams string) *helix.Workflow {
	wf := helix.New("opt-test")
	delay := 10 * time.Millisecond
	src := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return []string{"a", "b", "c"}, nil
	})
	rows := wf.Scanner("rows", "csv", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return len(in[0].([]string)), nil
	}, src)
	model := wf.Learner("model", learnerParams, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return in[0].(int) * 100, nil
	}, rows)
	wf.Reducer("checked", "acc", func(ctx context.Context, in []helix.Value) (Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return float64(in[0].(int)), nil
	}, model).IsOutput()
	return wf
}

// Value aliases helix.Value for brevity in this file's operator bodies.
type Value = helix.Value

// TestRunScopedOverridesForceResolveAndRevertHits is the acceptance
// scenario: one session runs iteration N under the baseline PolicyOpt,
// iteration N+1 under run-scoped WithPolicy(PolicyAlways) plus a
// parallelism override — without reopening — and the plan-cache stats
// must show the configuration change forced a re-solve; reverting the
// override must restore a full fingerprint hit against the baseline
// configuration's cached plan.
func TestRunScopedOverridesForceResolveAndRevertHits(t *testing.T) {
	workloads.RegisterAll()
	wl, err := sim.NewWorkload("census", workloads.Scale{Rows: 1, CostFactor: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Iterations 0–2 under the baseline: 0 materializes, 1 settles the
	// store, 2 is the steady-state full hit.
	var res *helix.Result
	for i := 0; i < 3; i++ {
		if res, err = sess.Run(ctx, wl.Build()); err != nil {
			t.Fatal(err)
		}
	}
	if res.Plan.Cache != helix.PlanCacheHit {
		t.Fatalf("steady-state baseline outcome %v, want hit", res.Plan.Cache)
	}
	baselineValues := res.Values
	before := sess.PlanCacheStats()

	// Iteration 3: run-scoped policy + parallelism override. The config
	// token differs, so reusing the baseline's plan is not permitted —
	// the cache must record a miss.
	over, err := sess.Run(ctx, wl.Build(),
		helix.WithPolicy(helix.PolicyAlways), helix.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if over.Plan.Cache != helix.PlanCacheCold {
		t.Fatalf("override run outcome %v, want cold (config change must force a re-solve)", over.Plan.Cache)
	}
	mid := sess.PlanCacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("override run: misses %d → %d, want +1 (stats %+v)", before.Misses, mid.Misses, mid)
	}
	if mid.Hits != before.Hits {
		t.Fatalf("override run produced a cache hit across configurations: %+v", mid)
	}

	// Iteration 4: the override is gone, so the baseline configuration's
	// cached plan applies again — a full fingerprint hit.
	rev, err := sess.Run(ctx, wl.Build())
	if err != nil {
		t.Fatal(err)
	}
	if rev.Plan.Cache != helix.PlanCacheHit {
		t.Fatalf("reverted run outcome %v, want full hit", rev.Plan.Cache)
	}
	if after := sess.PlanCacheStats(); after.Hits != mid.Hits+1 {
		t.Fatalf("reverted run: hits %d → %d, want +1 (stats %+v)", mid.Hits, after.Hits, after)
	}
	// Overrides must not change results (Theorem 1 across configurations).
	for name, want := range baselineValues {
		if rev.Values[name] == nil {
			t.Fatalf("output %s missing after override round-trip (want %v)", name, want)
		}
	}
}

// TestRunScopedOverrideChangesMaterialization: a run-scoped
// WithPolicy(PolicyNever) must govern the run's materialization
// decisions, not only its plan — nothing may be written under it.
func TestRunScopedOverrideChangesMaterialization(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var c atomic.Int64
	res, err := sess.Run(context.Background(), optWorkflow(&c, "LR reg=0.1"),
		helix.WithPolicy(helix.PolicyNever))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("output = %v", res.Values["checked"])
	}
	if sess.StorageBytes() != 0 {
		t.Fatalf("run under PolicyNever override stored %d bytes", sess.StorageBytes())
	}
}

type optionRow struct {
	sessionScoped bool
	opt           helix.Option
}

// optionRows is the option surface, one row per exported With…
// constructor: its scope and a sample value. TestOptionTableComplete
// proves the table complete against the source.
func optionRows(t *testing.T) map[string]optionRow {
	shared, err := helix.OpenSharedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shared.Close() })
	return map[string]optionRow{
		"WithPolicy":              {false, helix.WithPolicy(helix.PolicyAlways)},
		"WithStorageBudget":       {false, helix.WithStorageBudget(1 << 20)},
		"WithOMPThreshold":        {false, helix.WithOMPThreshold(3)},
		"WithDomain":              {false, helix.WithDomain("census")},
		"WithReuse":               {false, helix.WithReuse(false)},
		"WithPruning":             {false, helix.WithPruning(false)},
		"WithMemorySampling":      {false, helix.WithMemorySampling(true)},
		"WithDPRSlowdown":         {false, helix.WithDPRSlowdown(1.5)},
		"WithLISlowdown":          {false, helix.WithLISlowdown(1.5)},
		"WithStreaming":           {false, helix.WithStreaming(false)},
		"WithSyncMaterialization": {false, helix.WithSyncMaterialization(true)},
		"WithParallelism":         {false, helix.WithParallelism(2)},
		"WithAdaptive":            {false, helix.WithAdaptive(0.5)},
		"WithObserver":            {false, helix.WithObserver(func(helix.RunEvent) {})},
		"WithDiskThroughput":      {true, helix.WithDiskThroughput(1e6)},
		"WithSharedStore":         {true, helix.WithSharedStore(shared)},
		"WithTenant":              {true, helix.WithTenant("alice")},
	}
}

// TestOptionTableComplete walks the two files that declare options and
// requires exactly one optionRows entry per exported With… constructor,
// so a new knob cannot land without declaring (and testing) its scope.
func TestOptionTableComplete(t *testing.T) {
	rows := optionRows(t)
	declared := map[string]bool{}
	for _, file := range []string{"options.go", "shared.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "With") {
				continue
			}
			declared[fd.Name.Name] = true
			if _, ok := rows[fd.Name.Name]; !ok {
				t.Errorf("%s: %s has no row in optionRows", file, fd.Name.Name)
			}
		}
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("optionRows has a row for %s, which options.go and shared.go do not declare", name)
		}
	}
}

// TestSessionScopedOptionRejectedAtRunScope: a session-scoped option configures the store, which
// exists once per session, so Run and Plan must reject it with
// ErrSessionOption — executing nothing and leaving the iteration counter
// alone — instead of silently ignoring it; every other option is
// accepted by Open, Run and Plan alike.
func TestSessionScopedOptionRejectedAtRunScope(t *testing.T) {
	ctx := context.Background()
	for name, row := range optionRows(t) {
		t.Run(name, func(t *testing.T) {
			sess, err := helix.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var c atomic.Int64
			wf := optWorkflow(&c, "LR reg=0.1")
			_, planErr := sess.Plan(wf, row.opt)
			_, runErr := sess.Run(ctx, wf, row.opt)
			if row.sessionScoped {
				if !errors.Is(runErr, helix.ErrSessionOption) {
					t.Fatalf("Run with session-scoped option: err = %v, want ErrSessionOption", runErr)
				}
				if !errors.Is(planErr, helix.ErrSessionOption) {
					t.Fatalf("Plan with session-scoped option: err = %v, want ErrSessionOption", planErr)
				}
				if c.Load() != 0 {
					t.Fatal("rejected run executed operators")
				}
				if sess.Iteration() != 0 {
					t.Fatal("rejected run advanced the iteration counter")
				}
				return
			}
			if planErr != nil || runErr != nil {
				t.Fatalf("run-scoped option rejected at run scope: Plan err = %v, Run err = %v", planErr, runErr)
			}
			atOpen, err := helix.Open(t.TempDir(), row.opt)
			if err != nil {
				t.Fatalf("run-scoped option rejected by Open: %v", err)
			}
			atOpen.Close()
		})
	}
}

// TestBadOptionValues: an option built from a value that can configure
// nothing — an unknown domain, a negative or non-finite OMP threshold, a
// NaN adaptive threshold — fails whichever call it is passed to with
// ErrBadConfig, naming the option's value, instead of being reinterpreted
// as a default. The values at the edge of the valid range still open.
func TestBadOptionValues(t *testing.T) {
	bad := map[string]helix.Option{
		`"cenus"`: helix.WithDomain("cenus"),
		"-1":      helix.WithOMPThreshold(-1),
		"NaN":     helix.WithOMPThreshold(math.NaN()),
		"+Inf":    helix.WithOMPThreshold(math.Inf(1)),
		"is NaN":  helix.WithAdaptive(math.NaN()),
	}
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var c atomic.Int64
	wf := optWorkflow(&c, "LR reg=0.1")
	for want, o := range bad {
		if _, err := helix.Open(t.TempDir(), o); !errors.Is(err, helix.ErrBadConfig) || !strings.Contains(err.Error(), want) {
			t.Errorf("Open: err = %v, want ErrBadConfig naming %s", err, want)
		}
		if _, err := sess.Run(context.Background(), wf, o); !errors.Is(err, helix.ErrBadConfig) {
			t.Errorf("Run: err = %v, want ErrBadConfig for %s", err, want)
		}
		if _, err := sess.Plan(wf, o); !errors.Is(err, helix.ErrBadConfig) {
			t.Errorf("Plan: err = %v, want ErrBadConfig for %s", err, want)
		}
	}
	if c.Load() != 0 || sess.Iteration() != 0 {
		t.Fatal("a run rejected for a bad option executed operators or advanced the iteration")
	}
	for _, o := range []helix.Option{helix.WithDomain(""), helix.WithDomain("mnist"),
		helix.WithOMPThreshold(0), helix.WithAdaptive(-1)} {
		s, err := helix.Open(t.TempDir(), o)
		if err != nil {
			t.Errorf("valid option rejected: %v", err)
			continue
		}
		s.Close()
	}
}

// TestBadConfigValues: a nil shared store can configure nothing, at
// either scope, and a tenant label without a shared store would be
// dropped on the floor — both are ErrBadConfig, not a session that
// quietly ignores what it was told.
func TestBadConfigValues(t *testing.T) {
	if _, err := helix.Open(t.TempDir(), helix.WithSharedStore(nil)); !errors.Is(err, helix.ErrBadConfig) {
		t.Fatalf("Open(WithSharedStore(nil)): err = %v, want ErrBadConfig", err)
	}
	if _, err := helix.Open(t.TempDir(), helix.WithTenant("alice")); !errors.Is(err, helix.ErrBadConfig) {
		t.Fatalf("Open(WithTenant) without a shared store: err = %v, want ErrBadConfig", err)
	}
	sess, err := helix.Open(t.TempDir(), helix.WithTenant(""))
	if err != nil {
		t.Fatalf("an empty tenant label is no label: %v", err)
	}
	defer sess.Close()
	var c atomic.Int64
	wf := optWorkflow(&c, "LR reg=0.1")
	if _, err := sess.Run(context.Background(), wf, helix.WithSharedStore(nil)); !errors.Is(err, helix.ErrBadConfig) {
		t.Fatalf("Run(WithSharedStore(nil)): err = %v, want ErrBadConfig", err)
	}
	if _, err := sess.Plan(wf, helix.WithSharedStore(nil)); !errors.Is(err, helix.ErrBadConfig) {
		t.Fatalf("Plan(WithSharedStore(nil)): err = %v, want ErrBadConfig", err)
	}
	if c.Load() != 0 || sess.Iteration() != 0 {
		t.Fatal("run rejected for a bad option executed operators or advanced the iteration")
	}
}
