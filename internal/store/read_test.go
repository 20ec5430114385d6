package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// payloadSources feeds a payload to DecodeFrom the ways a load can see
// it: a byte at a time, in short reads, and from a real file.
func payloadSources(t *testing.T, data []byte) map[string]io.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.gob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]io.Reader{
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		"short":    iotest.HalfReader(bytes.NewReader(data)),
		"file":     f,
	}
}

// windowValues are values whose payloads outrun a load's first window, so
// the file-backed decode refills it, reads columns straight into their
// slices, or both.
func windowValues() map[string]any {
	floats := make([]float64, 3000)
	for i := range floats {
		floats[i] = float64(i) / 7
	}
	strs := make([]string, 2000)
	for i := range strs {
		strs[i] = fmt.Sprint("cell-", i%700)
	}
	ints := make([]int, 5000)
	for i := range ints {
		ints[i] = i * i * (1 - 2*(i%2))
	}
	blob := make([]byte, 9000)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	bools := make([]bool, 50_000)
	for i := range bools {
		bools[i] = i%3 == 0
	}
	m := make(map[string]float64, 600)
	for i := 0; i < 600; i++ {
		m[fmt.Sprint("k", i)] = float64(i) / 3
	}
	return map[string]any{
		"float64s":     floats,
		"floatmat":     [][]float64{floats[:1000], nil, floats[1000:2999]},
		"strings":      strs,
		"ints":         ints,
		"bytes":        blob,
		"bools":        bools,
		"mapsf":        m,
		"strmat":       [][]string{strs[:900], strs[900:]},
		"gob":          migrationRecord{Label: strings.Repeat("x", 5000), Tags: strs[:300]},
		"column-first": floats[:511], // the column ends exactly at the window's edge
	}
}

// TestDecodeFromAgreesWithDecode: every fixture and every window-crossing
// payload decodes through the file-backed Reader, fed a byte at a time, in
// short reads and from a file, to exactly what Decode makes of the same
// bytes; the payload one byte short or one byte long fails on every
// source, as it fails Decode.
func TestDecodeFromAgreesWithDecode(t *testing.T) {
	payloads := map[string][]byte{}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "codec", "*.bin"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payloads["fixture/"+filepath.Base(path)] = data
	}
	values := windowValues()
	for name, v := range values {
		data, err := BinaryCodec{}.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		payloads["window/"+name] = data
	}
	// An artifact with no HXB1 header, as stores kept before the binary
	// codec existed.
	legacy, err := GobCodec{}.Encode(values["float64s"])
	if err != nil {
		t.Fatal(err)
	}
	payloads["window/legacy-gob"] = legacy
	for name, data := range payloads {
		t.Run(name, func(t *testing.T) {
			want, err := BinaryCodec{}.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for source, src := range payloadSources(t, data) {
				got, err := BinaryCodec{}.DecodeFrom(src, int64(len(data)))
				if err != nil {
					t.Fatalf("%s: DecodeFrom: %v", source, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: DecodeFrom = %#v, Decode = %#v", source, got, want)
				}
			}
			for _, torn := range [][]byte{data[:len(data)-1], append(data[:len(data):len(data)], 0)} {
				// gob reads one value and ignores what follows it, so a
				// legacy artifact one byte long still decodes — on either
				// path. Every binary payload fails.
				_, werr := BinaryCodec{}.Decode(torn)
				if werr == nil && hasBinaryHeader(data) {
					t.Fatalf("Decode: %d of %d bytes decoded", len(torn), len(data))
				}
				for source, src := range payloadSources(t, torn) {
					if v, err := (BinaryCodec{}).DecodeFrom(src, int64(len(torn))); (err == nil) != (werr == nil) {
						t.Fatalf("%s: %d of %d bytes: DecodeFrom = %#v, %v; Decode's error %v", source, len(torn), len(data), v, err, werr)
					}
				}
			}
			// A source that ends before the size it was declared with.
			if v, err := (BinaryCodec{}).DecodeFrom(bytes.NewReader(data[:len(data)-1]), int64(len(data))); err == nil {
				t.Fatalf("a source one byte short of its size decoded to %#v", v)
			}
		})
	}
}

// TestDecodeFromReadCalls: a load pulls its first window, then at most the
// rest of the file in one read, plus one read per raw column it meets
// before that.
func TestDecodeFromReadCalls(t *testing.T) {
	values := windowValues()
	for _, tc := range []struct {
		name string
		max  int
	}{
		{"float64s", 2},     // window, then the column into its slice
		{"floatmat", 2},     // the row lengths fit the window
		{"bytes", 2},        // window, then the bytes into their slice
		{"strings", 2},      // window, then the rest whole
		{"bools", 2},        // the bitmap outruns the window: the rest whole
		{"column-first", 1}, // all in the first window
	} {
		data, err := BinaryCodec{}.Encode(values[tc.name])
		if err != nil {
			t.Fatal(err)
		}
		src := &countingReader{r: bytes.NewReader(data)}
		if _, err := (BinaryCodec{}).DecodeFrom(src, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if src.reads > tc.max {
			t.Errorf("%s: %d reads of a %d-byte payload, want ≤ %d", tc.name, src.reads, len(data), tc.max)
		}
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestLoadAllocatesOnlyTheValue pins the read path's mechanism: loading a
// 6.6 MB []float64 allocates the value's 8 bytes per element and a few KiB
// besides — not a whole-file buffer next to it, which doubled the bill.
func TestLoadAllocatesOnlyTheValue(t *testing.T) {
	const n = 825_000
	s := open(t)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 0.5
	}
	if _, err := s.Put("keep", "keep", want, 0); err != nil {
		t.Fatal(err)
	}
	var got any
	load := func() uint64 {
		before := heapAllocated()
		v, _, err := s.Get("keep")
		if err != nil {
			t.Fatal(err)
		}
		grown := heapAllocated() - before
		got = v
		return grown
	}
	const bound = 8*n + 64<<10
	if grown := load(); grown > bound {
		// Per-P caches flushed by a GC mid-load bill it for earlier small
		// allocations: measure again from a collected heap first.
		runtime.GC()
		if grown = load(); grown > bound {
			t.Fatalf("loading %d float64s allocated %d bytes, want ≤ %d", n, grown, bound)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the loaded value differs from the stored one")
	}
}

// TestChecksumFailsFlippedBits: one bit flipped anywhere in an artifact —
// in the first window, the remainder a refill reads, or a raw column read
// straight into its slice — fails the load, whatever reopen lies between
// the write and the read. A flip the decode cannot see as malformed is
// caught by the checksum. An entry written before artifacts carried a
// checksum loads unchecked.
func TestChecksumFailsFlippedBits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	values := windowValues()
	for name, v := range values {
		if _, err := s.Put(name, name, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	for name := range values {
		ent, _ := s.Entry(name)
		if ent.CRC == nil {
			t.Fatalf("%s: the reopened entry lost its checksum", name)
		}
		path := filepath.Join(dir, name+".gob")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{len(data) / 2, len(data) - 1} {
			flipped := bytes.Clone(data)
			flipped[off] ^= 0x10
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get(name); err == nil {
				t.Errorf("%s: a bit flipped at byte %d of %d loaded", name, off, len(data))
			}
		}
	}

	// The last byte of a float column is the top of its last float's
	// exponent: any value decodes, so only the checksum can tell.
	data, err := os.ReadFile(filepath.Join(dir, "float64s.gob"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "float64s.gob"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("float64s"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("a flipped exponent bit loaded with %v, want ErrChecksum", err)
	}
	s.mu.Lock()
	ent := s.entries["float64s"]
	ent.CRC = nil
	s.entries["float64s"] = ent
	s.mu.Unlock()
	if _, _, err := s.Get("float64s"); err != nil {
		t.Fatalf("an entry without a checksum was checked: %v", err)
	}
}

// TestVerify: Verify accepts an intact artifact and rejects a flipped bit,
// a cut or an appended byte as ErrChecksum, and a missing file with the
// read error, all without decoding; an entry without a checksum verifies.
func TestVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put("k", "k", []float64{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("k"); err != nil {
		t.Fatalf("an intact artifact: %v", err)
	}
	path := filepath.Join(dir, "k.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string][]byte{
		"bit flipped":   append(bytes.Clone(data[:len(data)-1]), data[len(data)-1]^0x01),
		"byte cut":      data[:len(data)-1],
		"byte appended": append(bytes.Clone(data), 0),
	} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Verify("k"); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: Verify = %v, want ErrChecksum", name, err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("k"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a missing file: Verify = %v, want the read error", err)
	}
	s.mu.Lock()
	ent := s.entries["k"]
	ent.CRC = nil
	s.entries["k"] = ent
	s.mu.Unlock()
	if err := s.Verify("k"); err != nil {
		t.Errorf("an entry without a checksum: Verify = %v", err)
	}
}
