package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/iotest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/codec golden fixtures")

// migrationRecord is a struct the binary codec has no native tag for: it
// rides the gob escape hatch, exercising tagGob in the fixtures.
type migrationRecord struct {
	Label string
	Score float64
	Tags  []string
}

func init() {
	RegisterValueType(migrationRecord{})
	// The gob side of the cross-codec tests needs every composite fixture
	// type registered; the binary codec handles them natively.
	RegisterValueType([]byte(nil))
	RegisterValueType([]int(nil))
	RegisterValueType([]int64(nil))
	RegisterValueType([]float64(nil))
	RegisterValueType([]string(nil))
	RegisterValueType([]bool(nil))
	RegisterValueType([][]float64(nil))
	RegisterValueType([][]string(nil))
	RegisterValueType(map[string]float64(nil))
	// gob numbers user types process-wide in first-use order and writes
	// the numbers into the payload. Sending migrationRecord before any test
	// runs gives it the numbers the committed gob.bin carries under every
	// -shuffle order, so TestGoldenFixtures can compare those bytes too.
	if _, err := (BinaryCodec{}).Encode(migrationRecord{}); err != nil {
		panic(err)
	}
}

// goldenValues is the fixture set: one entry per value tag, with repeated
// strings so the intern table's back-references are pinned too. The
// names double as fixture file names under testdata/codec.
func goldenValues() []struct {
	name  string
	value any
} {
	return []struct {
		name  string
		value any
	}{
		{"nil", nil},
		{"bool", true},
		{"int", -42},
		{"int64", int64(1 << 40)},
		{"float64", 3.141592653589793},
		{"string", "hello, census"},
		{"bytes", []byte{0x00, 0xff, 0x10, 0x20}},
		{"ints", []int{0, -1, 1, 1 << 20, -(1 << 20)}},
		{"int64s", []int64{0, 127, 128, -129, 1 << 33}},
		{"float64s", []float64{0, 1.5, -2.25, 1e300, -1e-300}},
		{"strings", []string{"alpha", "beta", "alpha", "alpha", "gamma", "beta"}},
		{"bools", []bool{true, false, true, true, false, false, true, true, false}},
		{"floatmat", [][]float64{{1, 2, 3}, nil, {4.5}, {6, 7}}},
		{"strmat", [][]string{{"x", "y"}, {"x"}, nil, {"y", "y", "z"}}},
		{"mapsf", map[string]float64{"age": 39, "hours": 40.5, "wage": 0}},
		{"gob", migrationRecord{Label: ">50K", Score: 0.87, Tags: []string{"a", "b"}}},
	}
}

// TestGoldenFixtures pins the on-disk binary format: every committed
// fixture must decode to its expected value, and re-encoding the value
// must reproduce the committed bytes exactly. A deliberate format change
// regenerates the fixtures with `go test ./internal/store -run Golden
// -update` — and must bump the version byte if old payloads no longer
// decode.
func TestGoldenFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "codec")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	codec := BinaryCodec{}
	for _, g := range goldenValues() {
		t.Run(g.name, func(t *testing.T) {
			enc, err := codec.Encode(g.value)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, g.name+".bin")
			if *updateGolden {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("encoding drifted from committed fixture: got %d bytes %x..., want %d bytes %x...",
					len(enc), enc[:min(16, len(enc))], len(want), want[:min(16, len(want))])
			}
			dec, err := codec.Decode(want)
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if !reflect.DeepEqual(dec, g.value) {
				t.Errorf("fixture decoded to %#v, want %#v", dec, g.value)
			}
		})
	}
}

// TestCodecRoundTripEquivalence: both codecs round-trip every fixture
// value, and cross-decoding works both ways — the binary codec reads
// legacy gob artifacts (in-place store migration) and the gob codec
// sniffs binary headers (switching back never strands artifacts).
func TestCodecRoundTripEquivalence(t *testing.T) {
	codecs := []Codec{BinaryCodec{}, GobCodec{}}
	for _, g := range goldenValues() {
		for _, encC := range codecs {
			for _, decC := range codecs {
				enc, err := encC.Encode(g.value)
				if err != nil {
					t.Fatalf("%s: %T encode: %v", g.name, encC, err)
				}
				dec, err := decC.Decode(enc)
				if err != nil {
					t.Fatalf("%s: %T→%T decode: %v", g.name, encC, decC, err)
				}
				if !reflect.DeepEqual(dec, g.value) {
					t.Errorf("%s: %T→%T round trip: got %#v, want %#v",
						g.name, encC, decC, dec, g.value)
				}
			}
		}
	}
}

// TestLegacyGobStoreMigrates writes artifacts with a gob-codec store and
// reopens the directory under the default binary codec: every entry must
// load (the decode path sniffs per artifact), and newly materialized
// values land in the new format without any rewrite step.
func TestLegacyGobStoreMigrates(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old.Codec = GobCodec{}
	want := []float64{1, 2, 3.5}
	if _, err := old.Put("sig-legacy", "legacy", want, 1); err != nil {
		t.Fatal(err)
	}

	migrated, err := Open(dir) // nil Codec → default binary
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := migrated.Get("sig-legacy")
	if err != nil {
		t.Fatalf("binary-codec store failed to load gob artifact: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated artifact = %#v, want %#v", got, want)
	}
	if _, err := migrated.Put("sig-new", "new", want, 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(migrated.path("sig-new"))
	if err != nil {
		t.Fatal(err)
	}
	if !hasBinaryHeader(data) {
		t.Fatal("new artifact in migrated store lacks the binary header")
	}
}

// TestDecodeCorruptPayloads: corrupt headers and truncated payloads must
// surface as errors — never panics, never silent garbage.
func TestDecodeCorruptPayloads(t *testing.T) {
	codec := BinaryCodec{}
	full, err := codec.Encode([]string{"alpha", "beta", "alpha"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[4] = 0x7f
		if _, err := codec.Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("decode = %v, want unsupported-version error", err)
		}
	})
	t.Run("unknown-tag", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[5] = 0xee
		if _, err := codec.Decode(bad); err == nil || !strings.Contains(err.Error(), "tag") {
			t.Fatalf("decode = %v, want unknown-tag error", err)
		}
	})
	t.Run("not-binary-not-gob", func(t *testing.T) {
		if _, err := codec.Decode([]byte("csv,not,an,artifact\n")); err == nil {
			t.Fatal("decoding junk succeeded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail cleanly (prefixes shorter than the
		// header route to gob, which also errors).
		for n := 0; n < len(full); n++ {
			if _, err := codec.Decode(full[:n]); err == nil {
				t.Fatalf("decoding %d/%d-byte prefix succeeded", n, len(full))
			}
		}
	})
	t.Run("truncated-every-fixture", func(t *testing.T) {
		for _, g := range goldenValues() {
			enc, err := codec.Encode(g.value)
			if err != nil {
				t.Fatal(err)
			}
			// nil encodes to exactly the 6-byte header+tag; any longer
			// payload must reject all proper prefixes past the header.
			for n := 5; n < len(enc); n++ {
				if _, err := codec.Decode(enc[:n]); err == nil {
					t.Fatalf("%s: decoding %d/%d-byte prefix succeeded", g.name, n, len(enc))
				}
			}
		}
	})
	t.Run("corrupt-intern-ref", func(t *testing.T) {
		w := &Writer{}
		buf := append([]byte{}, binaryMagic[:]...)
		buf = append(buf, binaryVersion, tagString)
		w.buf = buf
		w.Uvarint(99) // back-reference into an empty intern table
		if _, err := codec.Decode(w.buf); err == nil || !strings.Contains(err.Error(), "intern") {
			t.Fatalf("decode = %v, want intern-range error", err)
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// A corrupt length prefix must not drive a giant allocation.
		w := &Writer{}
		buf := append([]byte{}, binaryMagic[:]...)
		buf = append(buf, binaryVersion, tagFloat64s)
		w.buf = buf
		w.Uvarint(1 << 50)
		if _, err := codec.Decode(w.buf); err == nil {
			t.Fatal("decoding a 2^50-element column succeeded")
		}
	})
}

// TestUnknownExtensionErrors: a payload naming an unregistered extension
// is a clean error (e.g. artifacts from a build with extra workload
// types).
func TestUnknownExtensionErrors(t *testing.T) {
	w := &Writer{}
	w.buf = append(w.buf, binaryMagic[:]...)
	w.buf = append(w.buf, binaryVersion, tagExt)
	w.String("no-such-extension")
	_, err := BinaryCodec{}.Decode(w.buf)
	if err == nil || !strings.Contains(err.Error(), "no-such-extension") {
		t.Fatalf("decode = %v, want unknown-extension error", err)
	}
}

// TestInternCompression: repeated strings must cost a 1–2 byte
// back-reference, not a repeated literal — the property the codec's size
// win on categorical columns rests on.
func TestInternCompression(t *testing.T) {
	col := make([]string, 1000)
	for i := range col {
		col[i] = fmt.Sprintf("category-%d", i%4)
	}
	enc, err := BinaryCodec{}.Encode(col)
	if err != nil {
		t.Fatal(err)
	}
	gobEnc, err := GobCodec{}.Encode(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)*4 > len(gobEnc) {
		t.Errorf("interned column is %d B vs gob's %d B; want ≥4× smaller", len(enc), len(gobEnc))
	}
}

func TestTruncatedErrorIsSentinel(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.Uvarint(); !errors.Is(err, errTruncated) {
		t.Fatalf("Uvarint on empty reader = %v, want errTruncated", err)
	}
}

// TestPackedFloat64sForms: the column takes whichever of its three forms
// is smallest, every form returns the values bit for bit (-0, NaN and the
// infinities included), and a column handed over in chunks encodes to the
// bytes of the same column handed over whole.
func TestPackedFloat64sForms(t *testing.T) {
	negZero := math.Copysign(0, -1)
	halfZeros := make([]float64, 64)
	for i := range halfZeros {
		if i%2 == 0 {
			halfZeros[i] = 0.125 + float64(i)/1000
		}
	}
	for _, tc := range []struct {
		name string
		fs   []float64
		form byte
	}{
		{"empty", nil, 0},
		{"full-precision", []float64{0.1, 0.2, 0.30000000000000004, math.Pi}, 0},
		{"specials-stay-raw", []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, 1e300}, 0},
		{"half-zeros", halfZeros, 1},
		{"labels", []float64{0, 1, 1, 0, 1, 0, 0, 0, 9, -3}, 2},
		{"whole-but-huge", []float64{1 << 53, 1, 2}, 0}, // 2^53 is past what a float holds exactly
		{"neg-zero-is-not-zero", []float64{negZero, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &Writer{}
			w.PackedFloat64s(tc.fs)
			if got := w.buf[uvarintLen(uint64(len(tc.fs)))]; got != tc.form {
				t.Errorf("form %d, want %d (%d bytes)", got, tc.form, len(w.buf))
			}
			r := NewReader(w.buf)
			back, err := r.PackedFloat64s()
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("decode: %v, %d bytes left", err, r.Remaining())
			}
			if len(back) != len(tc.fs) {
				t.Fatalf("%d values back, want %d", len(back), len(tc.fs))
			}
			for i := range back {
				if math.Float64bits(back[i]) != math.Float64bits(tc.fs[i]) {
					t.Fatalf("value %d: %x, want %x", i, math.Float64bits(back[i]), math.Float64bits(tc.fs[i]))
				}
			}
			if len(tc.fs) > 2 {
				chunked := &Writer{}
				chunked.PackedFloat64Chunks(func(yield func([]float64) bool) {
					_ = yield(tc.fs[:1]) && yield(nil) && yield(tc.fs[1:])
				})
				if !bytes.Equal(chunked.buf, w.buf) {
					t.Errorf("chunked encoding differs: %x vs %x", chunked.buf, w.buf)
				}
			}
		})
	}
}

func uvarintLen(u uint64) int {
	n := 1
	for ; u >= 0x80; u >>= 7 {
		n++
	}
	return n
}

// TestDictStringBoundedTable: a column with more distinct cells than a
// dictionary holds still round-trips; its late cells are plain literals
// that take no id, so neither side's table outgrows dictMax, and the early
// cells stay referable.
func TestDictStringBoundedTable(t *testing.T) {
	cells := make([]string, 0, 3*dictMax)
	for i := 0; i < 2*dictMax; i++ {
		cells = append(cells, fmt.Sprint("cell-", i))
	}
	for i := 0; i < dictMax; i++ {
		cells = append(cells, fmt.Sprint("cell-", i%7), "", "same", "same")
	}
	w := &Writer{}
	var d Dict
	for _, s := range cells {
		w.DictString(&d, s)
	}
	if len(d.ids) > dictMax {
		t.Fatalf("encoder table holds %d entries, cap %d", len(d.ids), dictMax)
	}
	r := NewReader(w.buf)
	var table []string
	for i, want := range cells {
		got, err := r.DictString(&table)
		if err != nil || got != want {
			t.Fatalf("cell %d: %q, %v; want %q", i, got, err, want)
		}
	}
	if r.Remaining() != 0 || len(table) > dictMax {
		t.Fatalf("%d bytes left, decoder table %d entries", r.Remaining(), len(table))
	}
	// A repeated early cell costs its reference only.
	before := len(w.buf)
	w.DictString(&d, "cell-3")
	if n := len(w.buf) - before; n > 2 {
		t.Errorf("repeat of an interned cell took %d bytes", n)
	}
	// A reference past the table is an error, not a panic.
	bad := NewReader([]byte{9})
	if _, err := bad.DictString(new([]string)); err == nil {
		t.Error("dangling dictionary reference decoded")
	}
}

// TestBitmapRoundTrip covers widths around the byte boundary and the
// counting the record layouts size their maps with.
func TestBitmapRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 300} {
		w := &Writer{}
		set := func(i int) bool { return i%3 == 0 || i == n-1 }
		w.Bitmap(n, set)
		if len(w.buf) != (n+7)/8 {
			t.Fatalf("n=%d: %d bytes", n, len(w.buf))
		}
		r := NewReader(w.buf)
		bits, err := r.Bitmap(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < n; i++ {
			if bits.At(i) != set(i) {
				t.Fatalf("n=%d bit %d", n, i)
			}
			if set(i) {
				want++
			}
		}
		if got := bits.Count(n); got != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
		}
		if _, err := NewReader(w.buf).Bitmap(8*len(w.buf) + 1); err == nil {
			t.Fatalf("n=%d: a bitmap longer than the payload decoded", n)
		}
	}
}

// TestHostileCountsAllocateNothing: a length prefix the payload cannot
// back fails before anything is allocated from it, for every native tag
// that carries one.
func TestHostileCountsAllocateNothing(t *testing.T) {
	for _, tag := range []byte{tagBytes, tagInts, tagInt64s, tagFloat64s, tagStrings, tagBools, tagFloatMat, tagStrMat, tagMapSF} {
		w := &Writer{}
		w.buf = append(append(w.buf, binaryMagic[:]...), binaryVersion, tag)
		w.Uvarint(1 << 40)
		w.buf = append(w.buf, 1, 2, 3)
		payload := w.buf
		allocated := testing.AllocsPerRun(5, func() {
			if _, err := (BinaryCodec{}).Decode(payload); err == nil {
				t.Fatalf("tag 0x%02x: a 2^40 count decoded", tag)
			}
		})
		if allocated > 8 { // the Reader and the wrapped error
			t.Errorf("tag 0x%02x: %v allocations on the refusal path", tag, allocated)
		}
	}
}

// TestTrailingBytesRejected: a payload longer than its value is corrupt.
func TestTrailingBytesRejected(t *testing.T) {
	enc, err := BinaryCodec{}.Encode([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (BinaryCodec{}).Decode(append(enc, 0)); err == nil || !strings.Contains(err.Error(), "left over") {
		t.Fatalf("decode with a trailing byte = %v", err)
	}
}

// allocationBound is what a decode of n payload bytes may allocate: a
// packed zero is a bit on disk and 8 bytes in memory, a packed
// FeatureValue 40, so legitimate payloads expand a few hundredfold — but
// never by more than a fixed multiple, whatever their length prefixes say.
func allocationBound(n int) uint64 { return 512*uint64(n) + 64<<10 }

// heapAllocated is the process's cumulative heap allocation in bytes. It
// is read without stopping the world (a fuzz target runs it twice per
// input) and may lag by what sits in per-P caches — small next to the one
// oversized make the bound exists to catch.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// FuzzBinaryDecode: any byte string decodes to a value or an error — no
// panic, and no allocation beyond a fixed multiple of the input (payloads
// that route to gob are excused the second half: its decoder's appetite is
// its own). The file-backed path, fed a byte at a time, keeps the same
// bound and reaches the same outcome as the decode of the bytes in
// memory.
func FuzzBinaryDecode(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "codec", "*.bin"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bounded := hasBinaryHeader(data) && len(data) > 5 && data[5] != tagGob
		before := heapAllocated()
		v, err := BinaryCodec{}.Decode(data)
		grown := heapAllocated() - before
		if bounded && grown > allocationBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grown)
		}
		src := iotest.OneByteReader(bytes.NewReader(data))
		before = heapAllocated()
		fv, ferr := BinaryCodec{}.DecodeFrom(src, int64(len(data)))
		grown = heapAllocated() - before
		if bounded && grown > allocationBound(len(data)) {
			t.Fatalf("decoding %d bytes from a source allocated %d", len(data), grown)
		}
		if (err == nil) != (ferr == nil) || err == nil && !sameDecode(v, fv) {
			t.Fatalf("Decode = %#v, %v; DecodeFrom = %#v, %v", v, err, fv, ferr)
		}
		if err != nil {
			return
		}
		// What decoded must encode again (to possibly different bytes: the
		// fuzzer finds non-canonical payloads) and come back equal.
		enc, err := BinaryCodec{}.Encode(v)
		if err != nil {
			t.Fatalf("decoded value %#v does not encode: %v", v, err)
		}
		if _, err := (BinaryCodec{}).Decode(enc); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
	})
}

// sameDecode reports that two decodes of one payload agree. A NaN is
// never DeepEqual to itself, so values that differ only there are
// compared by their printed form.
func sameDecode(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
