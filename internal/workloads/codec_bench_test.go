package workloads

import (
	"context"
	"sync"
	"testing"

	"helix"
	"helix/internal/collection"
	"helix/internal/store"
)

// The codec micro-benchmarks time one encode or one decode of the values
// the repo benchmark's census-iter and mnist-iter workloads materialize,
// at the benchmark's own scales, with BenchmarkRowsParse beside them so
// "load it or compute it" reads off one table:
//
//	go test ./internal/workloads -run '^$' -bench 'Encode|Decode|RowsParse' -benchmem -cpu 1
//
// MB/s is over the encoded size.

// benchScale is what benchmark/workloads.go runs census-iter at;
// mnist-iter runs at Scale{Rows: 1}.
var benchScale = Scale{Rows: 5}

var benchValues struct {
	once          sync.Once
	census, mnist map[string]any
}

// materializedValues runs wl's cold iteration under always-materialize
// and reads every operator's result back from the store, by node name.
func materializedValues(tb testing.TB, wl Workload) map[string]any {
	tb.Helper()
	dir := tb.TempDir()
	sess, err := helix.Open(dir, helix.WithPolicy(helix.PolicyAlways))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), wl.Build()); err != nil {
		tb.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	out := map[string]any{}
	for _, k := range st.Keys() {
		ent, _ := st.Entry(k)
		v, _, err := st.Get(k)
		if err != nil {
			tb.Fatalf("%s: %v", ent.Name, err)
		}
		out[ent.Name] = v
	}
	return out
}

func benchValue(b *testing.B, workload, node string) any {
	b.Helper()
	RegisterAll()
	benchValues.once.Do(func() {
		benchValues.census = materializedValues(b, NewCensus(benchScale, 1))
		benchValues.mnist = materializedValues(b, NewMNIST(Scale{Rows: 1}, 1))
	})
	vals := benchValues.census
	if workload == "mnist" {
		vals = benchValues.mnist
	}
	v, ok := vals[node]
	if !ok {
		b.Fatalf("%s materialized no node %q", workload, node)
	}
	return v
}

var benchSink any

func benchEncode(b *testing.B, v any) {
	codec := store.BinaryCodec{}
	enc, err := codec.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = codec.Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, v any) {
	codec := store.BinaryCodec{}
	enc, err := codec.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = codec.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowsEncode(b *testing.B) { benchEncode(b, benchValue(b, "census", "rows")) }
func BenchmarkRowsDecode(b *testing.B) { benchDecode(b, benchValue(b, "census", "rows")) }

// BenchmarkRowsParse is what loading `rows` competes with: the scanner
// that computes it from the raw CSV pair.
func BenchmarkRowsParse(b *testing.B) {
	cd := benchValue(b, "census", "data").(CensusData)
	env := collection.DefaultEnv()
	b.SetBytes(int64(len(cd.Train) + len(cd.Test)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := scanCensus(env, cd)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
	}
}

func BenchmarkIncomeEncode(b *testing.B) { benchEncode(b, benchValue(b, "census", "income")) }
func BenchmarkIncomeDecode(b *testing.B) { benchDecode(b, benchValue(b, "census", "income")) }

func BenchmarkCensusDataEncode(b *testing.B) { benchEncode(b, benchValue(b, "census", "data")) }
func BenchmarkCensusDataDecode(b *testing.B) { benchDecode(b, benchValue(b, "census", "data")) }

func BenchmarkImagesEncode(b *testing.B) { benchEncode(b, benchValue(b, "mnist", "images")) }
func BenchmarkImagesDecode(b *testing.B) { benchDecode(b, benchValue(b, "mnist", "images")) }

// The two kinds of extractor column: all-categorical and all-numeric.
func BenchmarkColumnEncode(b *testing.B) {
	b.Run("categorical", func(b *testing.B) { benchEncode(b, benchValue(b, "census", "eduXocc")) })
	b.Run("numeric", func(b *testing.B) { benchEncode(b, benchValue(b, "census", "hours_per_weekExt")) })
}

func BenchmarkColumnDecode(b *testing.B) {
	b.Run("categorical", func(b *testing.B) { benchDecode(b, benchValue(b, "census", "eduXocc")) })
	b.Run("numeric", func(b *testing.B) { benchDecode(b, benchValue(b, "census", "hours_per_weekExt")) })
}

func BenchmarkPredictionsEncode(b *testing.B) {
	benchEncode(b, benchValue(b, "census", "predictions"))
}

func BenchmarkPredictionsDecode(b *testing.B) {
	benchDecode(b, benchValue(b, "census", "predictions"))
}
