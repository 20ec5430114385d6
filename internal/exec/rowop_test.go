package exec

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The three stage shapes of the DSL (helix.MapRows / FilterRows /
// FlatMapRows), rebuilt on NewRowOp so the executor is tested without
// importing the root package.
func mapOp[In, Out any](f func(In) Out) *RowOp {
	return NewRowOp(func(down func(Out)) func(In) {
		return func(row In) { down(f(row)) }
	})
}

func filterOp[T any](pred func(T) bool) *RowOp {
	return NewRowOp(func(down func(T)) func(T) {
		return func(row T) {
			if pred(row) {
				down(row)
			}
		}
	})
}

func flatMapOp[In, Out any](f func(In) []Out) *RowOp {
	return NewRowOp(func(down func(Out)) func(In) {
		return func(row In) {
			for _, u := range f(row) {
				down(u)
			}
		}
	})
}

func TestRunRowOpsChainsStages(t *testing.T) {
	ops := []*RowOp{
		flatMapOp(func(s string) []int { return []int{len(s), len(s) + 1} }),
		mapOp(func(v int) float64 { return float64(v) / 2 }),
		filterOp(func(v float64) bool { return v > 1 }),
	}
	got, err := RunRowOps(context.Background(), ops, []any{[]string{"a", "bcd"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2}
	vs, ok := got.([]float64)
	if !ok || len(vs) != len(want) || vs[0] != want[0] || vs[1] != want[1] {
		t.Fatalf("chain produced %#v, want %v", got, want)
	}
	// The exported entry point refuses what the planner never builds: no
	// members, or anything but the head's one input.
	for _, bad := range []struct {
		ops    []*RowOp
		inputs []any
	}{{nil, []any{[]string{"a"}}}, {ops, nil}, {ops, []any{[]string{"a"}, []string{"b"}}}} {
		if _, err := RunRowOps(context.Background(), bad.ops, bad.inputs); !errors.Is(err, ErrBadPlan) {
			t.Errorf("RunRowOps(%d ops, %d inputs): err = %v, want ErrBadPlan", len(bad.ops), len(bad.inputs), err)
		}
	}
}

// A chain whose neighbours disagree on the element type fails when it
// is bound, before either row function has seen a row.
func TestBindRejectsMismatchedNeighbours(t *testing.T) {
	calls := 0
	ops := []*RowOp{
		flatMapOp(func(s string) []int { calls++; return []int{len(s)} }),
		mapOp(func(v float64) float64 { calls++; return v }),
	}
	_, err := RunRowOps(context.Background(), ops, []any{[]string{"a", "b"}})
	if !errors.Is(err, ErrRowType) {
		t.Fatalf("err = %v, want ErrRowType", err)
	}
	if calls != 0 {
		t.Fatalf("row functions ran %d times before the mismatch was reported", calls)
	}
}

// An untyped nil input (pruned or empty upstream) streams zero rows, and
// zero rows build a typed nil slice — what an append-based batch
// operator returns, so the two encode identically.
func TestDriveNilInputYieldsTypedNil(t *testing.T) {
	got, err := RunRowOp(context.Background(), mapOp(func(v int) float64 { return float64(v) }), []any{nil})
	if err != nil {
		t.Fatal(err)
	}
	if vs, ok := got.([]float64); !ok || vs != nil {
		t.Fatalf("nil input produced %#v, want []float64(nil)", got)
	}
}

func TestDriveRejectsWrongInputType(t *testing.T) {
	calls := 0
	op := mapOp(func(v float64) float64 { calls++; return v })
	_, err := RunRowOp(context.Background(), op, []any{[]int{1, 2}})
	if !errors.Is(err, ErrRowType) {
		t.Fatalf("err = %v, want ErrRowType", err)
	}
	if calls != 0 {
		t.Fatalf("row function ran %d times on a value of the wrong type", calls)
	}
}

// A run canceled from inside a row function stops within
// rowCheckInterval further head rows, fused or not: the poll in
// driveRows is the only thing between a cancellation and draining the
// rest of the input.
func TestCancelStopsWithinCheckInterval(t *testing.T) {
	const rows, cancelAt = 10 * rowCheckInterval, 2*rowCheckInterval + 7
	in := make([]int, rows)
	for mode, stages := range map[string]int{"fused": 3, "batch": 1} {
		ctx, cancel := context.WithCancel(context.Background())
		consumed := 0
		ops := []*RowOp{mapOp(func(v int) int {
			if consumed++; consumed == cancelAt {
				cancel()
			}
			return v
		})}
		for len(ops) < stages {
			ops = append(ops, mapOp(func(v int) int { return v }))
		}
		_, err := RunRowOps(ctx, ops, []any{in})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		if over := consumed - cancelAt; over < 0 || over > rowCheckInterval {
			t.Fatalf("%s: %d head rows consumed after the cancel at row %d, want at most %d", mode, over, cancelAt, rowCheckInterval)
		}
	}
}

// appendSteps counts the allocations append makes growing a nil
// []float64 to n elements one at a time.
func appendSteps(n int) int {
	var s []float64
	steps := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			steps++
		}
		s = append(s, 0)
	}
	return steps
}

// The engine's own allocations per chain run are a constant — binding
// the stages — whatever the number of rows: rows travel as their own
// types through plain calls, nothing is boxed and no closure is made per
// row. The only allocations that grow with the input are the output
// slice's growth steps (and whatever the user's row functions allocate:
// none here).
func TestFusedChainAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	triple := [3]float64{0.25, 0.5, 0.75}
	ops := []*RowOp{
		flatMapOp(func(int) []float64 { return triple[:] }),
		mapOp(func(v float64) float64 { return v * 2 }),
		filterOp(func(v float64) bool { return v > 0.75 }),
	}
	ctx := context.Background()
	engineAllocs := func(rows int) int {
		in := []any{make([]int, rows)}
		total := testing.AllocsPerRun(5, func() {
			if _, err := RunRowOps(ctx, ops, in); err != nil {
				t.Fatal(err)
			}
		})
		return int(total) - appendSteps(2*rows) // two of every three values pass the filter
	}
	small, large := engineAllocs(10_000), engineAllocs(100_000)
	if small != large {
		t.Fatalf("engine allocations grew with the input: %d at 10k rows, %d at 100k", small, large)
	}
	if small > 16 {
		t.Fatalf("%d engine allocations to bind a three-stage chain, want a handful", small)
	}
}

// rowstreamLines is the benchmark workload's input shape:
// age,hours,wage,class.
func rowstreamLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = strconv.Itoa(17+i%70) + "," + strconv.Itoa(1+i%99) + "," +
			strconv.FormatFloat(float64(i%100000)/100, 'f', 2, 64) + ",private"
	}
	return lines
}

func rowstreamParse(line string) []float64 {
	out := make([]float64, 0, 3)
	for k := 0; k < 3; k++ {
		f, rest, _ := strings.Cut(line, ",")
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
		line = rest
	}
	return out
}

func rowstreamNorm(v float64) float64 { return v * 0.01 }

func rowstreamKeep(v float64) bool { return v > 0.18 }

var benchSink any

// BenchmarkFusedChain runs the rowstream-ingest chain (300 k lines →
// parse, a flatMap of three → norm → keep) through RunRowOps, and the
// same three functions through a hand-written typed loop as the floor.
// engine-allocs/row is the chain's allocations minus the loop's, per
// input line: what the executor adds to the user's own code.
func BenchmarkFusedChain(b *testing.B) {
	lines := rowstreamLines(300_000)
	inputs := []any{lines}
	ops := []*RowOp{flatMapOp(rowstreamParse), mapOp(rowstreamNorm), filterOp(rowstreamKeep)}
	ctx := context.Background()
	chain := func() {
		out, err := RunRowOps(ctx, ops, inputs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
	loop := func() {
		var out []float64
		for _, line := range lines {
			for _, v := range rowstreamParse(line) {
				if w := rowstreamNorm(v); rowstreamKeep(w) {
					out = append(out, w)
				}
			}
		}
		benchSink = out
	}
	mallocs := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	floor := mallocs(loop)
	for _, bc := range []struct {
		name string
		run  func()
	}{{"chain", chain}, {"typed-loop", loop}} {
		b.Run(bc.name, func(b *testing.B) {
			var allocs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				allocs += mallocs(bc.run)
			}
			rows := float64(b.N) * float64(len(lines))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(allocs/rows, "allocs/row")
			if bc.name == "chain" {
				b.ReportMetric((allocs-floor*float64(b.N))/rows, "engine-allocs/row")
			}
		})
	}
}
