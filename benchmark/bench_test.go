package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"helix/internal/workloads"
)

const specPath = "../BENCHMARK.json"

func TestMain(m *testing.M) {
	workloads.RegisterAll()
	os.Exit(m.Run())
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(items []specItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Name
	}
	sort.Strings(out)
	return out
}

func quickConfig(t *testing.T, trace int) runConfig {
	return runConfig{seed: 7, trace: trace, quick: true, faultStep: -1, outDir: t.TempDir(), scratch: t.TempDir()}
}

// TestQuickRunMatchesSpec runs every workload at smoke scale and checks
// that what the program emits and what BENCHMARK.json declares are the
// same names, that nothing fails, and that the driver's line is well
// formed.
func TestQuickRunMatchesSpec(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, wl := range allWorkloads {
		names = append(names, wl.name)
	}
	sort.Strings(names)
	if want := specNames(spec.Workloads); !equal(names, want) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", names, want)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range allWorkloads {
		res, err := runWorkload(context.Background(), wl, quickConfig(t, -1))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.OpsAttempted == 0 || res.OpsFailed != 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, res.OpsFailed, res.OpsAttempted)
		}
		if got, want := sortedNames(res.EndToEnd), specNames(spec.EndToEnd); !equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json has %v", wl.name, got, want)
		}
		if got, want := sortedNames(res.PerLayer), specNames(spec.PerLayer); !equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json has %v", wl.name, got, want)
		}
		for _, name := range append(sortedNames(res.EndToEnd), sortedNames(res.PerLayer)...) {
			if !valid.MatchString(name) {
				t.Errorf("%s: metric name %q is not a valid name", wl.name, name)
			}
		}
		for name, m := range res.EndToEnd {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", wl.name, err)
		}

		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(driverLine(res)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: driver line: %v", wl.name, err)
		}
		if !line.Correct || line.Attempted != res.OpsAttempted || len(line.Metrics) != len(res.EndToEnd)+len(res.PerLayer) {
			t.Errorf("%s: driver line %+v does not match the result", wl.name, line)
		}
	}
}

// topLevelSeconds sums the top-level spans with the given name in one
// rep — for "Session.Run" that is the rep's cum_run_s as the trace saw it.
func topLevelSeconds(tr *tracer, name string, run int) float64 {
	var sum time.Duration
	for _, s := range tr.spans {
		if s.Parent < 0 && s.Run == run && s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum.Seconds()
}

func equal(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// TestTraceCoversTheRun: the top-level Session.Run spans of a traced rep
// sum to that rep's cumulative run time, and no child span leaves its
// parent's rep.
func TestTraceCoversTheRun(t *testing.T) {
	h := &harness{wl: allWorkloads[3], seed: 7, quick: true, ctx: context.Background(), faultStep: -1, scratch: t.TempDir()}
	if err := h.setup(); err != nil {
		t.Fatal(err)
	}
	h.tr = newTracer()
	reps, err := h.measure(0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	cum, traced := reps[0].cum(), topLevelSeconds(h.tr, "Session.Run", reps[0].traceRun)
	if math.Abs(traced-cum) > 0.02*cum {
		t.Errorf("top-level Session.Run spans sum to %.6fs, the rep's cum_run_s is %.6fs", traced, cum)
	}
	cats := map[string]int{}
	for _, s := range h.tr.spans {
		cats[s.Cat]++
		if s.Parent >= 0 && h.tr.spans[s.Parent].Run != s.Run {
			t.Errorf("span %s belongs to rep %d, its parent to rep %d", s.Name, s.Run, h.tr.spans[s.Parent].Run)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, cat := range []string{catCall, catPlan, catNode, catFlush, catOp} {
		if cats[cat] == 0 {
			t.Errorf("no %s span recorded", cat)
		}
	}
	self := h.tr.selfByCat()
	var total float64
	for _, s := range self {
		total += s
	}
	var top float64
	for _, s := range h.tr.spans {
		if s.Parent < 0 {
			top += (s.End - s.Start).Seconds()
		}
	}
	// Self times partition the top-level spans, except where concurrent
	// node spans overlap each other (then they add up to more).
	if total < top*0.999 {
		t.Errorf("self times sum to %.6fs, less than the %.6fs of top-level spans", total, top)
	}
}

// TestOracleCountsMismatches corrupts one step's output of each
// bench-owned workload and expects exactly that operation to fail.
func TestOracleCountsMismatches(t *testing.T) {
	for _, wl := range allWorkloads[2:] {
		cfg := quickConfig(t, 0)
		cfg.faultStep = 2
		res, err := runWorkload(context.Background(), wl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.OpsFailed != 1 {
			t.Errorf("%s: %d operations failed, want 1 (the corrupted step)", wl.name, res.OpsFailed)
		}
		if !strings.Contains(driverLine(res), `"correct":false`) {
			t.Errorf("%s: driver line does not report the failure: %s", wl.name, driverLine(res))
		}
	}
}

// TestApproxOracle: what stands in for byte equality on mnist-iter. A
// report passes against an oracle a little off; it fails when it is far
// off, lacks a metric, or follows a small edit with another accuracy than
// before it; and a rep whose cold and big iterations sit 0.06 low on
// average fails them all, though each alone would pass.
func TestApproxOracle(t *testing.T) {
	report := func(acc float64) workloads.EvalReport {
		return workloads.EvalReport{Metrics: map[string]float64{"accuracy": acc}}
	}
	if gap, err := approxEqual(report(0.80), report(0.86), nil); err != nil || math.Abs(gap+0.06) > 1e-9 {
		t.Errorf("0.80 against an oracle of 0.86: gap %v, %v", gap, err)
	}
	if _, err := approxEqual(report(0.60), report(0.86), nil); err == nil {
		t.Error("0.60 against an oracle of 0.86 passed")
	}
	if _, err := approxEqual(workloads.EvalReport{Metrics: map[string]float64{"wrong_0": 1}}, report(0.86), nil); err == nil {
		t.Error("a report without the oracle's metric passed")
	}
	if _, err := approxEqual(report(0.80), report(0.86), report(0.80)); err != nil {
		t.Errorf("the accuracy of before the small edit: %v", err)
	}
	if _, err := approxEqual(report(0.80), report(0.86), report(0.8025)); err == nil {
		t.Error("another accuracy than before the small edit passed")
	}

	rep := &repResult{iters: []iterSample{{tag: tagCold, accGap: -0.06}, {tag: tagBig, accGap: -0.07}, {tag: tagSmall}, {tag: tagBig, accGap: -0.05}}}
	rep.checkDrift("test")
	for i, it := range rep.iters {
		if it.failed != (it.tag != tagSmall) {
			t.Errorf("iteration %d (%s): failed = %t", i, it.tag, it.failed)
		}
	}
	rep = &repResult{iters: []iterSample{{tag: tagCold, accGap: -0.06}, {tag: tagBig, accGap: 0.07}}}
	rep.checkDrift("test")
	if rep.iters[0].failed || rep.iters[1].failed {
		t.Error("gaps that average out failed")
	}
}

// TestCompareVerdicts: two sets of identical files pass; a 40 % worsening
// of one metric (beyond any bound the contract allows) is flagged; a
// metric whose spread exceeds its bound, or whose spread is unknown
// because a side is a single file, is unresolved; a higher share of
// failed operations fails; sets measured differently, or missing a
// workload or a metric, are refused.
func TestCompareVerdicts(t *testing.T) {
	spec := readSpec(t)
	base := func() *envelope {
		env := &envelope{GOMAXPROCS: 1, Seconds: 15}
		for _, wl := range allWorkloads {
			res := workloadResult{Name: wl.name, OpsAttempted: 100, EndToEnd: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				res.EndToEnd[m.Name] = metric{Value: 2, Q1: 1.99, Q3: 2.01, N: 9}
			}
			env.Workloads = append(env.Workloads, res)
		}
		return env
	}
	dir := t.TempDir()
	files := 0
	// write stores the envelopes as one set of result files.
	write := func(envs ...*envelope) string {
		var paths []string
		for _, env := range envs {
			data, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			files++
			path := filepath.Join(dir, fmt.Sprintf("%d.json", files))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		return strings.Join(paths, ",")
	}
	a := write(base(), base())
	compare := func(b string) (int, string) {
		var out bytes.Buffer
		code := runCompare(&out, specPath, a, b)
		return code, out.String()
	}
	pairs := len(allWorkloads) * len(spec.EndToEnd)

	if code, out := compare(a); code != 0 || strings.Count(out, " ok\n") != pairs {
		t.Errorf("identical sets: exit %d\n%s", code, out)
	}

	worse := func() *envelope {
		env := base()
		m := env.Workloads[1].EndToEnd["cum_run_s"]
		m.Value *= 1.4
		env.Workloads[1].EndToEnd["cum_run_s"] = m
		return env
	}
	if code, out := compare(write(worse(), worse())); code != 1 || strings.Count(out, "regressed") != 1 {
		t.Errorf("40%% worse cum_run_s on one workload: exit %d\n%s", code, out)
	}
	if code, out := compare(write(worse())); code != 0 || strings.Count(out, "unresolved") != pairs {
		t.Errorf("a single file has no spread, so nothing can be resolved: exit %d\n%s", code, out)
	}

	// Four runs whose medians scatter by more than the bound.
	var noisy []*envelope
	for _, v := range []float64{1.2, 2, 2.8, 3.6} {
		env := base()
		m := env.Workloads[0].EndToEnd["cold_run_s"]
		m.Value = v
		env.Workloads[0].EndToEnd["cold_run_s"] = m
		noisy = append(noisy, env)
	}
	if code, out := compare(write(noisy...)); code != 0 || strings.Count(out, "unresolved") != 1 {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out)
	}

	failing := base()
	failing.Workloads[2].OpsFailed = 1
	if code, out := compare(write(base(), failing)); code != 1 {
		t.Errorf("higher ops_failed share: exit %d\n%s", code, out)
	}

	twoProcs, quick, partial, short := base(), base(), base(), base()
	twoProcs.GOMAXPROCS = 2
	quick.Quick = true
	partial.Workloads = partial.Workloads[:3]
	delete(short.Workloads[0].EndToEnd, "store_mb")
	for name, env := range map[string]*envelope{"other GOMAXPROCS": twoProcs, "quick run": quick, "missing workload": partial, "missing metric": short} {
		if code, out := compare(write(env, env)); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, out)
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(n=4),
// the rule the driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	m := summarize("s", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if m.Q1 != 2.75 || m.Value != 5.5 || m.Q3 != 8.25 || m.N != 10 {
		t.Errorf("got q1=%v median=%v q3=%v n=%d, want 2.75 5.5 8.25 10", m.Q1, m.Value, m.Q3, m.N)
	}
	m = summarize("s", []float64{3, 1, 2})
	if m.Q1 != 1 || m.Value != 2 || m.Q3 != 3 {
		t.Errorf("got q1=%v median=%v q3=%v, want 1 2 3", m.Q1, m.Value, m.Q3)
	}
}
