package workloads

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"helix"
	"helix/internal/store"
)

// TestCensusStreamByteIdentical is the acceptance check behind the
// streaming benchmark's numbers: the census-scale pipeline produces
// byte-identical outputs (under canonical encoding) whether the
// parse→norm→keep chain runs fused per-row or as three batch operators.
func TestCensusStreamByteIdentical(t *testing.T) {
	wf := CensusStream(20000, 1)

	on, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	p, err := on.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fused) != 1 || len(p.Fused[0]) != 3 {
		t.Fatalf("Fused = %v, want one group of 3 (parse, norm, keep)", p.Fused)
	}
	resOn, err := on.Run(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}

	off, err := helix.Open(t.TempDir(), helix.WithStreaming(false))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	resOff, err := off.Run(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}

	stats, ok := resOn.Values["stats"].([]float64)
	if !ok || len(stats) != 3 || stats[0] == 0 {
		t.Fatalf("stats = %#v, want [count sum mean] with count > 0", resOn.Values["stats"])
	}
	for name, v := range resOn.Values {
		a, err := store.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Encode(resOff.Values[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("output %q differs between streaming and batch execution", name)
		}
	}
}

// CensusStream is the streaming counterpart of the census workflow: the
// same shape — CSV lines, field parsing, normalization, filtering, an
// aggregate — expressed through the row-wise streaming API (FlatMapRows /
// MapRows / FilterRows), so the parse→norm→keep chain fuses into one
// per-row pipeline. Batch execution of the identical workflow holds every
// intermediate column (3·rows float64s per stage) live at once; fused
// execution holds one row. The peak-RSS benchmark measures exactly that
// difference, and the byte-identity test asserts both modes produce the
// same aggregate to the bit.
//
// rows and seed enter the source's params string, so changing either
// deprecates the whole chain as a DPR change would.
func CensusStream(rows int, seed int64) *helix.Workflow {
	wf := helix.New("census-stream")
	lines := wf.Source("lines", fmt.Sprintf("rows=%d seed=%d", rows, seed),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return censusLines(rows, seed), nil
		})
	// One CSV line → its three numeric fields (age, hours, wage).
	parse := helix.FlatMapRows(wf, "parse", "fields=age,hours,wage", func(line string) []float64 {
		fields := strings.Split(line, ",")
		out := make([]float64, 0, 3)
		for _, f := range fields[:3] {
			v, _ := strconv.ParseFloat(f, 64)
			out = append(out, v)
		}
		return out
	}, lines)
	norm := helix.MapRows(wf, "norm", "scale=0.01", func(v float64) float64 {
		return v * 0.01
	}, parse)
	keep := helix.FilterRows(wf, "keep", "min=0.18", func(v float64) bool {
		return v > 0.18
	}, norm)
	wf.Reducer("stats", "sum,count,mean", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		var sum float64
		var n int
		if vs, ok := in[0].([]float64); ok {
			for _, v := range vs {
				sum += v
			}
			n = len(vs)
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		return []float64{float64(n), sum, mean}, nil
	}, keep).IsOutput()
	return wf
}

// censusLines deterministically synthesizes rows CSV lines shaped like
// the adult-census extract: age,hours,wage,class.
func censusLines(rows int, seed int64) []string {
	out := make([]string, rows)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	classes := [4]string{"private", "gov", "self", "other"}
	var b strings.Builder
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		age := 17 + (x>>33)%70
		hours := 1 + (x>>17)%99
		wage := float64((x>>3)%100000) / 100
		b.Reset()
		b.Grow(32)
		b.WriteString(strconv.FormatUint(age, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(hours, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(wage, 'f', 2, 64))
		b.WriteByte(',')
		b.WriteString(classes[x%4])
		out[i] = b.String()
	}
	return out
}
