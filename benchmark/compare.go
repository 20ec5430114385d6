package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads: the
// declared names, and the end-to-end bounds -compare applies.
type benchmarkSpec struct {
	Workloads []specItem `json:"workloads"`
	EndToEnd  []specItem `json:"end_to_end"`
	PerLayer  []specItem `json:"per_layer"`
}

type specItem struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	return spec, err
}

// resultSet is one side of a comparison: one or more result files of
// the same commit.
type resultSet []*envelope

func loadSet(arg string) (resultSet, error) {
	var set resultSet
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		env := &envelope{path: path}
		if err := json.Unmarshal(data, env); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, env)
	}
	return set, nil
}

// comparable checks that every file of both sets was measured the same
// way, and that each set holds every workload the benchmark declares,
// with every end-to-end metric: a verdict over unlike or partial sets
// would mean nothing. A file may hold one workload (a --workload run) or
// all of them.
func comparable(spec benchmarkSpec, sets ...resultSet) error {
	first := sets[0][0]
	for _, set := range sets {
		held := map[string]bool{}
		for _, env := range set {
			if env.GOMAXPROCS != first.GOMAXPROCS || env.Quick != first.Quick || env.Seconds != first.Seconds {
				return fmt.Errorf("%s (gomaxprocs %d, quick %t, %g s) and %s (gomaxprocs %d, quick %t, %g s) were not measured the same way",
					first.path, first.GOMAXPROCS, first.Quick, first.Seconds, env.path, env.GOMAXPROCS, env.Quick, env.Seconds)
			}
			for _, w := range env.Workloads {
				held[w.Name] = true
				for _, m := range spec.EndToEnd {
					if _, ok := w.EndToEnd[m.Name]; !ok {
						return fmt.Errorf("%s: workload %s has no %s", env.path, w.Name, m.Name)
					}
				}
			}
		}
		for _, wl := range spec.Workloads {
			if !held[wl.Name] {
				return fmt.Errorf("the set starting with %s has no run of workload %s", set[0].path, wl.Name)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" {
			return fmt.Errorf("%s is %q-is-better; every end-to-end metric of this benchmark is lower-is-better", m.Name, m.Better)
		}
	}
	return nil
}

// value is the set's median of a workload's end-to-end metric, and
// spread its run-to-run spread as a share of that median: the quartile
// distance across the files' values when there are at least four files,
// their range when there are two or three, and unknown (-1) for a single
// run — the quartiles inside one run mix iterations of different kinds
// and say nothing about how well the run repeats.
func (s resultSet) value(workload, name string) (value, spread float64) {
	var medians []float64
	for _, env := range s {
		for _, w := range env.Workloads {
			if w.Name == workload {
				medians = append(medians, w.EndToEnd[name].Value)
			}
		}
	}
	across := summarize("", medians)
	switch n := len(medians); {
	case n == 1:
		return across.Value, -1
	case n < 4:
		return across.Value, ratio(slices.Max(medians)-slices.Min(medians), across.Value)
	}
	return across.Value, ratio(across.Q3-across.Q1, across.Value)
}

// failedShare is the set's share of failed operations on a workload.
func (s resultSet) failedShare(workload string) float64 {
	var attempted, failed int
	for _, env := range s {
		for _, w := range env.Workloads {
			if w.Name == workload {
				attempted += w.OpsAttempted
				failed += w.OpsFailed
			}
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// runCompare prints, per workload and end-to-end metric, whether set b
// is no worse than set a by more than the benchmark's bound. The verdict
// is unresolved when either set's runs spread wider than the bound, or
// when a set is a single file and its spread is therefore unknown. It
// returns the exit code: 1 on a regression or a higher share of failed
// operations, 2 when the inputs cannot be read or compared.
func runCompare(w io.Writer, specPath, argA, argB string) int {
	spec, err := loadSpec(specPath)
	var a, b resultSet
	if err == nil {
		a, err = loadSet(argA)
	}
	if err == nil {
		b, err = loadSet(argB)
	}
	if err == nil {
		err = comparable(spec, a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, sa := a.value(wl.Name, m.Name)
			vb, sb := b.value(wl.Name, m.Name)
			worse := ratio(vb-va, va)
			verdict, shown := "ok", fmt.Sprintf("%.1f%%", 100*max(sa, sb))
			switch {
			case sa < 0 || sb < 0:
				verdict, shown = "unresolved", "n/a"
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %+7.1f%% %7s %6.1f%%  %s\n",
				wl.Name, m.Name, va, vb, 100*worse, shown, 100*m.Bound, verdict)
		}
		if fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-18s ops_failed share rose from %.4f to %.4f\n", wl.Name, fa, fb)
			code = 1
		}
	}
	return code
}
