package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"iter"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Codec serializes values for the materialization store. Implementations
// must be safe for concurrent use: the write-behind pool encodes from
// several writer goroutines at once, and single-flighted Gets decode from
// whichever goroutine wins the flight.
//
// Type registration is part of the interface so callers never couple to a
// specific encoding (historically store.Register leaked gob into every
// call site): register value types once via RegisterValueType and every
// codec sees them.
type Codec interface {
	// Encode returns the on-disk representation of value.
	Encode(value any) ([]byte, error)
	// Decode reverses Encode. Implementations are expected to sniff the
	// format header and fall back to legacy gob payloads, so a store
	// directory written by an older build keeps loading.
	Decode(data []byte) (any, error)
	// DecodeFrom is Decode of the size bytes src supplies, pulled as the
	// decode needs them instead of into one buffer first (see "How a load
	// reads"): the store's read path, straight from the artifact's file.
	DecodeFrom(src io.Reader, size int64) (any, error)
}

// The binary format is a 5-byte header followed by one tagged value:
//
//	'H' 'X' 'B' '1'  magic
//	0x01             format version
//	tag byte         value encoding, one of the tag* constants
//	payload          tag-specific
//
// Payload conventions: integers are unsigned varints (counts, lengths,
// dictionary ids) or zigzag varints (signed data); float64 is 8 bytes
// little-endian of math.Float64bits; strings are interned per message —
// each occurrence is either a back-reference to a previously seen string
// or a literal that assigns the next id — so repeated categorical values
// (the census columns, row keys) cost one varint after first sight.
// Slices of numerics are laid out flat (columnar), not per-element.
//
// Extensions (RegisterExt) build their layouts from the same primitives
// plus the record kernels below, which the native tags do not use (their
// bytes are pinned): per-column string dictionaries (Dict, DictString),
// un-interned strings (RawString), bitmaps (Bitmap) and zero-aware float
// columns (PackedFloat64s).
//
// # Layout changes
//
// Native tags are append-only and never change meaning. An extension whose
// layout changes takes a new Name ("workloads.TaggedRows/2") and its old
// encoder and decoder are deleted: an artifact written under the old name
// then fails to decode with "unknown codec extension", which the engine
// treats like a vanished materialization and recomputes. There is never a
// second decoder to keep honest.
//
// # Decoded values own their memory, in slabs
//
// Nothing a decoder returns aliases the payload. A decoder may, however,
// back the many small slices of one value with a few large allocations
// (slabs): every vector of a decoded dataset is a window of one []float64.
// Each window's capacity is cut to its length, so appending to one
// reallocates instead of overwriting its neighbour, and writing through
// one never reaches another. Stored values are immutable by the store's
// contract anyway (Get shares one decode between concurrent callers).
//
// A payload that does not start with the magic is treated as a legacy
// gob artifact and decoded by gob: old store directories migrate in
// place, entry by entry, with no rewrite step.
//
// # How a load reads
//
// A load never holds the whole artifact as bytes next to the value it
// decodes to. Store reads an artifact through DecodeFrom, whose Reader
// pulls the file through a window: the first is a few KiB (loadWindow),
// enough for the header and a small value's fields. When a field runs
// past the window, the Reader reads everything the file has left in one
// call into a fresh window; the file is then exhausted, so a load makes
// at most two such reads. A raw column (Float64s, the dense form of
// PackedFloat64s, a [][]float64's flat column, a []byte) instead copies
// what the window already holds into the slice the decoder returns and
// reads the rest of the column from the file straight into that slice:
// one allocation and one copy per column, where reading the file whole
// first made two of each. A window is never overwritten, so the views
// Bytes and Bitmap return stay valid until the decode ends, across
// later reads. NewReader's window is the whole payload and has no file
// behind it: Decode([]byte) is the same decode over bytes already in
// memory.
var binaryMagic = [4]byte{'H', 'X', 'B', '1'}

const binaryVersion = 1

// Value tags. Append only — the on-disk format is pinned by golden
// fixtures in testdata/codec.
const (
	tagNil      = 0x00
	tagGob      = 0x01 // gob-encoded payload (fallback for unregistered types)
	tagBool     = 0x02
	tagInt      = 0x03 // zigzag varint, decodes as int
	tagInt64    = 0x04 // zigzag varint, decodes as int64
	tagFloat64  = 0x05
	tagString   = 0x06
	tagBytes    = 0x07
	tagInts     = 0x08 // []int: count + zigzag varints
	tagInt64s   = 0x09 // []int64: count + zigzag varints
	tagFloat64s = 0x0a // []float64: count + raw 8-byte LE column
	tagStrings  = 0x0b // []string: count + interned refs
	tagBools    = 0x0c // []bool: count + bitmap
	tagFloatMat = 0x0d // [][]float64: row count + row lens + flat column
	tagStrMat   = 0x0e // [][]string: row count + row lens + interned refs
	tagMapSF    = 0x0f // map[string]float64: count + sorted key/value pairs
	tagExt      = 0x10 // registered extension: interned type name + payload
)

// BinaryCodec is the purpose-built columnar codec: native encodings for
// the repo's row-shaped types, varint numerics, per-message string
// interning, and a gob escape hatch for anything unregistered. The zero
// value is ready to use.
type BinaryCodec struct{}

// GobCodec is the legacy encoding: the reference encoder the store and
// workloads codec tests compare values through, and a Store.Codec a test
// can install. No program uses it; sessions always write BinaryCodec.
type GobCodec struct{}

func (GobCodec) Encode(value any) ([]byte, error) { return Encode(value) }

// Decode is BinaryCodec's: it sniffs for the binary header, so a directory
// that once held binary artifacts keeps loading after a switch back to
// gob, and decodes anything else as gob.
func (GobCodec) Decode(data []byte) (any, error) { return BinaryCodec{}.Decode(data) }

// DecodeFrom is BinaryCodec's, like Decode.
func (GobCodec) DecodeFrom(src io.Reader, size int64) (any, error) {
	return BinaryCodec{}.DecodeFrom(src, size)
}

// defaultCodec is used by stores whose Codec field is nil.
var defaultCodec Codec = BinaryCodec{}

// RegisterValueType registers a concrete Go type for materialization with
// every codec. The binary codec needs it for values it routes through its
// gob escape hatch; the gob codec needs it for everything. Call it for
// each concrete operator-output type, like gob.Register.
func RegisterValueType(v any) { gob.Register(v) }

// Ext is a custom columnar encoding for one concrete type, registered
// with RegisterExt. It lets packages the store cannot import (workload
// row types, example types) opt into the binary format instead of the
// gob escape hatch.
type Ext struct {
	// Name is the on-disk type tag. Renaming it orphans the artifacts
	// written under the old one — which is what a layout change must do
	// (see "Layout changes" above) and nothing else should.
	Name string
	// Type is the concrete type handled, e.g. reflect.TypeOf([]Row(nil)).
	Type reflect.Type
	// Encode writes v (guaranteed of type Type) to w.
	Encode func(w *Writer, v any) error
	// Decode reads the value back from r.
	Decode func(r *Reader) (any, error)
}

var (
	//lint:nolockio
	extMu     sync.RWMutex
	extByType = map[reflect.Type]*Ext{}
	extByName = map[string]*Ext{}
)

// RegisterExt installs a custom columnar encoding. Registering the same
// type or name twice panics — silent replacement would orphan artifacts.
func RegisterExt(ext Ext) {
	if ext.Name == "" || ext.Type == nil || ext.Encode == nil || ext.Decode == nil {
		panic("store: RegisterExt: incomplete extension")
	}
	extMu.Lock()
	defer extMu.Unlock()
	if _, dup := extByType[ext.Type]; dup {
		panic(fmt.Sprintf("store: RegisterExt: duplicate type %v", ext.Type))
	}
	if _, dup := extByName[ext.Name]; dup {
		panic(fmt.Sprintf("store: RegisterExt: duplicate name %q", ext.Name))
	}
	e := ext
	extByType[ext.Type] = &e
	extByName[ext.Name] = &e
}

func lookupExt(v any) *Ext {
	extMu.RLock()
	defer extMu.RUnlock()
	return extByType[reflect.TypeOf(v)]
}

func lookupExtName(name string) *Ext {
	extMu.RLock()
	defer extMu.RUnlock()
	return extByName[name]
}

func hasBinaryHeader(data []byte) bool {
	return len(data) >= 5 && [4]byte(data[:4]) == binaryMagic
}

func (BinaryCodec) Encode(value any) ([]byte, error) {
	var w Writer
	w.Grow(sizeHint(value) + 16)
	w.buf = append(w.buf, binaryMagic[:]...)
	w.buf = append(w.buf, binaryVersion)
	if err := w.Value(value); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return w.buf, nil
}

// maxSizeHint caps what a value's own size estimate may make Encode
// allocate up front; a larger message grows from there.
const maxSizeHint = 1 << 28

// sizeHint is a cheap guess at value's encoded size, so the message buffer
// is allocated once instead of doubling its way up through append (which
// copies a multi-megabyte message several times over). Values that report
// their own size (the engine's Sizer) are believed; extensions whose type
// cannot carry a method call Writer.Grow themselves.
func sizeHint(value any) int {
	switch v := value.(type) {
	case interface{ ApproxBytes() int64 }:
		return int(min(max(v.ApproxBytes(), 0), maxSizeHint))
	case string:
		return min(len(v), maxSizeHint)
	case []byte:
		return min(len(v), maxSizeHint)
	case []float64:
		return min(8*len(v), maxSizeHint)
	}
	return 0
}

func (BinaryCodec) Decode(data []byte) (any, error) { return decode(NewReader(data)) }

// DecodeFrom decodes the size bytes src supplies. A src that ends early
// fails the decode, as a payload that size cannot hold the value does.
func (BinaryCodec) DecodeFrom(src io.Reader, size int64) (any, error) {
	if size < 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: decode: payload of %d bytes", size)
	}
	r := &Reader{src: src, unread: int(size)}
	if err := r.refill(min(int(size), loadWindow)); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return decode(r)
}

// decode reads one whole message from r: the header and one value, and
// nothing after it.
func decode(r *Reader) (any, error) {
	if !hasBinaryHeader(r.data[r.pos:]) {
		// Legacy artifact written before the binary codec existed.
		data, err := r.take(r.Remaining())
		if err != nil {
			return nil, fmt.Errorf("store: decode: %w", err)
		}
		return gobDecode(data)
	}
	if v := r.data[r.pos+4]; v != binaryVersion {
		return nil, fmt.Errorf("store: decode: unsupported binary format version %d", v)
	}
	r.pos += 5
	v, err := r.Value()
	if err == nil && r.Remaining() != 0 {
		// A decoder that stops short of what its encoder wrote would also
		// accept that value's truncations.
		err = fmt.Errorf("%d bytes left over after the value", r.Remaining())
	}
	if err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return v, nil
}

func gobDecode(data []byte) (any, error) {
	var value any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&value); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return value, nil
}

// nativeLittleEndian reports that a []float64's memory already is the
// wire format of a float column, so a column moves with one copy.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putFloat64s fills dst (8 bytes per element of src) with src as
// little-endian IEEE-754 bits.
func putFloat64s(dst []byte, src []float64) {
	if len(src) == 0 {
		return
	}
	if nativeLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 8*len(src)))
		return
	}
	for i, f := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// Writer serializes values into the binary format. It is the primitive
// surface extensions build on; one Writer serves one message, carrying
// the message-scoped intern table.
type Writer struct {
	buf    []byte
	intern map[string]uint64
	tmp    [binary.MaxVarintLen64]byte
}

// Grow makes room for n more bytes with at most one allocation. An
// extension that knows (a bound on) its encoded size calls it first.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// extend appends n bytes and returns them for the caller to fill.
func (w *Writer) extend(n int) []byte {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:off+n]
	return w.buf[off:]
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	if u < 0x80 {
		w.buf = append(w.buf, byte(u))
		return
	}
	n := binary.PutUvarint(w.tmp[:], u)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(i int64) {
	n := binary.PutVarint(w.tmp[:], i)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// Float64 appends 8 little-endian bytes.
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// Bool appends one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a string interned across the whole message: 0 followed
// by len+bytes the first time a string is seen (assigning it the next
// id), or id+1 as a back-reference on every later occurrence. Right for
// names and small vocabularies; a bulk column wants DictString (a table
// of its own) or RawString (none).
func (w *Writer) String(s string) {
	if id, ok := w.intern[s]; ok {
		w.Uvarint(id + 1)
		return
	}
	if w.intern == nil {
		w.intern = make(map[string]uint64)
	}
	w.intern[s] = uint64(len(w.intern))
	w.Uvarint(0)
	w.RawString(s)
}

// RawString appends len+bytes with no interning: for text that does not
// repeat (file contents, identifiers).
func (w *Writer) RawString(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends a length-prefixed byte slice (no interning).
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// dictMax bounds one column's dictionary. A column with more distinct
// values than this (census fnlwgt: one per row) is not worth a table: the
// map outgrows the cache and nearly every lookup misses. Strings met once
// the table is full are written as plain literals.
const dictMax = 4096

// Dict is the encoder's state for one dictionary-coded string column: the
// zero value is an empty dictionary. Each column of a record layout gets
// its own, so a column's references stay small whatever its neighbours
// hold, and a high-cardinality column cannot bloat the others' table.
type Dict struct {
	ids map[string]uint64
	// recent is a direct-mapped cache in front of ids, indexed by a
	// few-instruction hash of the cell: a categorical column's handful of
	// values, and any run of equal cells, are answered by one string
	// comparison instead of a map lookup. ref is the cell's reference as
	// written (id+2); 0 marks an empty slot.
	recent [16]struct {
		s   string
		ref uint64
	}
	literals uint64 // ids handed out so far
}

// DictString appends s as the next cell of the column d tracks:
//
//	0 len bytes   a literal that takes the column's next id
//	1 len bytes   a literal that takes none (the dictionary is full)
//	id+2          the literal that took id
func (w *Writer) DictString(d *Dict, s string) {
	slot := &d.recent[0]
	if n := len(s); n > 0 {
		slot = &d.recent[(n*31+int(s[0])*7+int(s[n/2])*3+int(s[n-1]))&15]
	}
	if slot.ref != 0 && slot.s == s {
		w.Uvarint(slot.ref)
		return
	}
	if id, ok := d.ids[s]; ok {
		slot.s, slot.ref = s, id+2
		w.Uvarint(id + 2)
		return
	}
	if len(d.ids) >= dictMax {
		w.buf = append(w.buf, 1)
		w.RawString(s)
		return
	}
	if d.ids == nil {
		d.ids = make(map[string]uint64)
	}
	d.ids[s] = d.literals
	slot.s, slot.ref = s, d.literals+2
	d.literals++
	w.buf = append(w.buf, 0)
	w.RawString(s)
}

// Float64s appends a flat column of float64s (count + raw values),
// moved into the message in one copy.
func (w *Writer) Float64s(fs []float64) {
	w.Uvarint(uint64(len(fs)))
	putFloat64s(w.extend(8*len(fs)), fs)
}

// PackedFloat64s appends a float column in the smallest of three forms:
//
//	count  0  raw values, as Float64s
//	count  1  bitmap(count)  the non-zero values only
//	count  2  zigzag varints, when every value is a whole number
//
// Image pixels and dense feature vectors are often half zeros, labels and
// class scores are small whole numbers, and gob spends one to three bytes
// on either, so a raw 8-byte column would store them larger than the
// escape hatch did. Values round-trip bit for bit: -0 and NaN count as
// non-zero and as not whole (the tests are on the bits).
func (w *Writer) PackedFloat64s(fs []float64) {
	w.PackedFloat64Chunks(func(yield func([]float64) bool) { yield(fs) })
}

// PackedFloat64Chunks is PackedFloat64s over a column that exists only in
// pieces — every vector of a dataset — so the encoder need not gather
// them into one slice first. chunks is ranged over twice.
func (w *Writer) PackedFloat64Chunks(chunks iter.Seq[[]float64]) {
	count, nonzero, whole, varintBytes := 0, 0, true, 0
	for fs := range chunks {
		count += len(fs)
		for _, f := range fs {
			if math.Float64bits(f) != 0 {
				nonzero++
			}
			if whole {
				i := int64(f)
				if whole = math.Abs(f) < 1<<53 && math.Float64bits(float64(i)) == math.Float64bits(f); whole {
					varintBytes += (bits.Len64(uint64(i<<1)^uint64(i>>63)|1) + 6) / 7
				}
			}
		}
	}
	raw, sparse := 8*count, 8*nonzero+(count+7)/8
	w.Uvarint(uint64(count))
	switch {
	case whole && varintBytes < min(raw, sparse):
		w.buf = append(w.buf, 2)
		w.Grow(varintBytes)
		for fs := range chunks {
			for _, f := range fs {
				w.Varint(int64(f))
			}
		}
	case sparse < raw:
		w.buf = append(w.buf, 1)
		dst := w.extend((count+7)/8 + 8*nonzero)
		present, values := dst[:(count+7)/8], dst[(count+7)/8:]
		clear(present)
		i := 0
		for fs := range chunks {
			for _, f := range fs {
				if b := math.Float64bits(f); b != 0 {
					present[i>>3] |= 1 << (i & 7)
					binary.LittleEndian.PutUint64(values, b)
					values = values[8:]
				}
				i++
			}
		}
	default:
		w.buf = append(w.buf, 0)
		for fs := range chunks {
			putFloat64s(w.extend(8*len(fs)), fs)
		}
	}
}

// Bitmap appends n bits, 8 per byte, LSB first; bit(i) supplies bit i.
// The count is the caller's to write: most layouts already carry it.
func (w *Writer) Bitmap(n int, bit func(i int) bool) {
	dst := w.extend((n + 7) / 8)
	clear(dst)
	for i := 0; i < n; i++ {
		if bit(i) {
			dst[i>>3] |= 1 << (i & 7)
		}
	}
}

// Bools appends a []bool as its count and a bitmap.
func (w *Writer) Bools(v []bool) {
	w.Uvarint(uint64(len(v)))
	w.Bitmap(len(v), func(i int) bool { return v[i] })
}

// Value appends one tagged value using the native encodings, a
// registered extension, or the gob escape hatch.
func (w *Writer) Value(value any) error {
	switch v := value.(type) {
	case nil:
		w.buf = append(w.buf, tagNil)
	case bool:
		w.buf = append(w.buf, tagBool)
		w.Bool(v)
	case int:
		w.buf = append(w.buf, tagInt)
		w.Varint(int64(v))
	case int64:
		w.buf = append(w.buf, tagInt64)
		w.Varint(v)
	case float64:
		w.buf = append(w.buf, tagFloat64)
		w.Float64(v)
	case string:
		w.buf = append(w.buf, tagString)
		w.String(v)
	case []byte:
		w.buf = append(w.buf, tagBytes)
		w.Bytes(v)
	case []int:
		w.buf = append(w.buf, tagInts)
		w.Uvarint(uint64(len(v)))
		for _, i := range v {
			w.Varint(int64(i))
		}
	case []int64:
		w.buf = append(w.buf, tagInt64s)
		w.Uvarint(uint64(len(v)))
		for _, i := range v {
			w.Varint(i)
		}
	case []float64:
		w.buf = append(w.buf, tagFloat64s)
		w.Float64s(v)
	case []string:
		w.buf = append(w.buf, tagStrings)
		w.Uvarint(uint64(len(v)))
		for _, s := range v {
			w.String(s)
		}
	case []bool:
		w.buf = append(w.buf, tagBools)
		w.Bools(v)
	case [][]float64:
		w.buf = append(w.buf, tagFloatMat)
		w.Uvarint(uint64(len(v)))
		total := 0
		for _, row := range v {
			w.Uvarint(uint64(len(row)))
			total += len(row)
		}
		dst := w.extend(8 * total)
		for _, row := range v {
			putFloat64s(dst, row)
			dst = dst[8*len(row):]
		}
	case [][]string:
		w.buf = append(w.buf, tagStrMat)
		w.Uvarint(uint64(len(v)))
		for _, row := range v {
			w.Uvarint(uint64(len(row)))
		}
		for _, row := range v {
			for _, s := range row {
				w.String(s)
			}
		}
	case map[string]float64:
		w.buf = append(w.buf, tagMapSF)
		w.Uvarint(uint64(len(v)))
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic bytes for equal maps
		for _, k := range keys {
			w.String(k)
			w.Float64(v[k])
		}
	default:
		if ext := lookupExt(value); ext != nil {
			w.buf = append(w.buf, tagExt)
			w.String(ext.Name)
			return ext.Encode(w, value)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&value); err != nil {
			return err
		}
		w.buf = append(w.buf, tagGob)
		w.Bytes(buf.Bytes())
	}
	return nil
}

// Reader deserializes the binary format. Every method bounds-checks, so
// truncated or corrupt payloads surface as errors, never panics; and every
// count is checked against the bytes that remain before anything is
// allocated from it, so a corrupt length cannot demand more than a fixed
// multiple of the payload's own size.
//
// The payload reaches the Reader through a window (see "How a load
// reads"): data holds the bytes pulled so far, and src the unread bytes
// after them, if any.
type Reader struct {
	data   []byte
	pos    int
	intern []string
	src    io.Reader
	unread int // bytes of src not yet pulled
}

// NewReader wraps a payload (past the header) for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// loadWindow is the size of the first window of a Reader with a file
// behind it: the header and the fields of a small value, never a column.
const loadWindow = 4 << 10

var errTruncated = fmt.Errorf("truncated payload")

// Remaining reports the bytes not yet consumed, in the window and behind
// it: the bound any count read from the payload has to respect.
func (r *Reader) Remaining() int { return len(r.data) - r.pos + r.unread }

// refill makes a fresh window of the window's unconsumed bytes and the
// next n of src. The old window is left as it is, so the views into it
// that Bytes and Bitmap handed out stay valid.
func (r *Reader) refill(n int) error {
	rest := r.data[r.pos:]
	data := make([]byte, len(rest)+n)
	copy(data, rest)
	if err := r.pull(data[len(rest):]); err != nil {
		return err
	}
	r.data, r.pos = data, 0
	return nil
}

// pull fills dst from src (reading nothing when dst is empty).
func (r *Reader) pull(dst []byte) error {
	if _, err := io.ReadFull(r.src, dst); err != nil {
		return fmt.Errorf("read payload: %w", err)
	}
	r.unread -= len(dst)
	return nil
}

// take consumes n bytes and returns them (a view of the window). A take
// that runs past the window first pulls everything src has left.
func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || n > r.Remaining() {
		return nil, errTruncated
	}
	if n > len(r.data)-r.pos {
		if err := r.refill(r.unread); err != nil {
			return nil, err
		}
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// readInto consumes len(dst) bytes into dst: what the window holds is
// copied, and the rest is read from src straight into dst.
func (r *Reader) readInto(dst []byte) error {
	if len(dst) > r.Remaining() {
		return errTruncated
	}
	n := copy(dst, r.data[r.pos:])
	r.pos += n
	return r.pull(dst[n:])
}

// readFloat64s fills dst with the next 8*len(dst) bytes, little-endian
// IEEE-754 bits, read into dst's own memory.
func (r *Reader) readFloat64s(dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	if err := r.readInto(raw); err != nil {
		return err
	}
	if !nativeLittleEndian {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	if r.pos < len(r.data) && r.data[r.pos] < 0x80 {
		r.pos++
		return uint64(r.data[r.pos-1]), nil
	}
	u, n := binary.Uvarint(r.data[r.pos:])
	if n == 0 && r.unread > 0 {
		// The window ends inside the varint.
		if err := r.refill(r.unread); err != nil {
			return 0, err
		}
		u, n = binary.Uvarint(r.data[r.pos:])
	}
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return u, nil
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() (int64, error) {
	i, n := binary.Varint(r.data[r.pos:])
	if n == 0 && r.unread > 0 {
		if err := r.refill(r.unread); err != nil {
			return 0, err
		}
		i, n = binary.Varint(r.data[r.pos:])
	}
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return i, nil
}

// Float64 reads 8 little-endian bytes.
func (r *Reader) Float64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Bool reads one byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

// String reads a message-interned string reference or literal.
func (r *Reader) String() (string, error) {
	ref, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if ref > 0 {
		id := ref - 1
		if id >= uint64(len(r.intern)) {
			return "", fmt.Errorf("intern reference %d out of range", id)
		}
		return r.intern[id], nil
	}
	s, err := r.RawString()
	if err != nil {
		return "", err
	}
	r.intern = append(r.intern, s)
	return s, nil
}

// RawString reads a string written by Writer.RawString.
func (r *Reader) RawString() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// DictString reads one cell of a dictionary-coded column; table is that
// column's decoder state, starting nil (see Writer.DictString).
func (r *Reader) DictString(table *[]string) (string, error) {
	ref, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if ref >= 2 {
		id := ref - 2
		if id >= uint64(len(*table)) {
			return "", fmt.Errorf("dictionary reference %d out of range", id)
		}
		return (*table)[id], nil
	}
	s, err := r.RawString()
	if err == nil && ref == 0 {
		*table = append(*table, s)
	}
	return s, err
}

// Bytes reads a length-prefixed byte slice: a view of the payload, valid
// until the decode ends (see "How a load reads").
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, errTruncated
	}
	return r.take(int(n))
}

// Count reads a length prefix and bounds it by the remaining bytes: each
// of the counted elements occupies at least minBytes (≥ 1) further bytes
// of payload, so a corrupt length fails here instead of driving a giant
// allocation.
func (r *Reader) Count(minBytes int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining())/uint64(minBytes) {
		return 0, errTruncated
	}
	return int(n), nil
}

// Bits is a bitmap read by Reader.Bitmap: a view of the payload, valid
// until the decode ends (see "How a load reads").
type Bits []byte

// At reports bit i.
func (b Bits) At(i int) bool { return b[i>>3]&(1<<(i&7)) != 0 }

// Count reports how many of the first n bits are set.
func (b Bits) Count(n int) int {
	set := 0
	for _, x := range b[:n>>3] {
		set += bits.OnesCount8(x)
	}
	if n&7 != 0 {
		set += bits.OnesCount8(b[n>>3] & (1<<(n&7) - 1))
	}
	return set
}

// Bitmap reads n bits written by Writer.Bitmap.
func (r *Reader) Bitmap(n int) (Bits, error) {
	if n < 0 || n > 8*r.Remaining() {
		return nil, errTruncated
	}
	return r.take((n + 7) / 8)
}

// Bools reads a []bool written by Writer.Bools (nil when empty).
func (r *Reader) Bools() ([]bool, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 8*uint64(r.Remaining()) {
		return nil, errTruncated
	}
	bits, err := r.Bitmap(int(n))
	if err != nil || n == 0 {
		return nil, err
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = bits.At(i)
	}
	return bs, nil
}

// Float64s reads a flat column written by Writer.Float64s into a slice
// of its own.
func (r *Reader) Float64s() ([]float64, error) {
	n, err := r.Count(8)
	if err != nil || n == 0 {
		return nil, err
	}
	fs := make([]float64, n)
	if err := r.readFloat64s(fs); err != nil {
		return nil, err
	}
	return fs, nil
}

// PackedFloat64s reads a column written by Writer.PackedFloat64s into a
// slice of its own. The bitmap form costs a bit per element, so a corrupt
// count can demand at most 64 bytes of slice per byte of payload.
func (r *Reader) PackedFloat64s() ([]float64, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	form, err := r.take(1)
	if err != nil {
		return nil, err
	}
	// Every form spends at least a bit per element.
	if n > 8*uint64(r.Remaining()) {
		return nil, errTruncated
	}
	if n == 0 {
		return nil, nil
	}
	switch form[0] {
	case 0:
		if n > uint64(r.Remaining())/8 {
			return nil, errTruncated
		}
		fs := make([]float64, n)
		if err := r.readFloat64s(fs); err != nil {
			return nil, err
		}
		return fs, nil
	case 1:
		present, err := r.Bitmap(int(n))
		if err != nil {
			return nil, err
		}
		raw, err := r.take(8 * present.Count(int(n)))
		if err != nil {
			return nil, err
		}
		fs := make([]float64, n)
		for i := range fs {
			if present.At(i) {
				fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
		return fs, nil
	case 2:
		if n > uint64(r.Remaining()) {
			return nil, errTruncated
		}
		fs := make([]float64, n)
		for i := range fs {
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			fs[i] = float64(v)
		}
		return fs, nil
	default:
		return nil, fmt.Errorf("unknown float column form %d", form[0])
	}
}

// Value reads one tagged value.
func (r *Reader) Value() (any, error) {
	t, err := r.take(1)
	if err != nil {
		return nil, err
	}
	switch tag := t[0]; tag {
	case tagNil:
		return nil, nil
	case tagBool:
		return r.Bool()
	case tagInt:
		i, err := r.Varint()
		return int(i), err
	case tagInt64:
		return r.Varint()
	case tagFloat64:
		return r.Float64()
	case tagString:
		return r.String()
	case tagBytes:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []byte(nil), nil
		}
		b := make([]byte, n)
		if err := r.readInto(b); err != nil {
			return nil, err
		}
		return b, nil
	case tagInts:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []int(nil), nil
		}
		is := make([]int, n)
		for i := range is {
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			is[i] = int(v)
		}
		return is, nil
	case tagInt64s:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []int64(nil), nil
		}
		is := make([]int64, n)
		for i := range is {
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			is[i] = v
		}
		return is, nil
	case tagFloat64s:
		return r.Float64s()
	case tagStrings:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []string(nil), nil
		}
		ss := make([]string, n)
		for i := range ss {
			if ss[i], err = r.String(); err != nil {
				return nil, err
			}
		}
		return ss, nil
	case tagBools:
		return r.Bools()
	case tagFloatMat:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]float64(nil), nil
		}
		lens := make([]int, n)
		total := 0
		for i := range lens {
			l, err := r.Count(1)
			if err != nil {
				return nil, err
			}
			lens[i] = l
			// Checked as it grows, so a hostile total cannot overflow.
			if total += l; total > r.Remaining() {
				return nil, errTruncated
			}
		}
		if total > r.Remaining()/8 {
			return nil, errTruncated
		}
		flat := make([]float64, total)
		if err := r.readFloat64s(flat); err != nil {
			return nil, err
		}
		rows := make([][]float64, n)
		off := 0
		for i, l := range lens {
			if l > 0 {
				rows[i] = flat[off : off+l : off+l]
			}
			off += l
		}
		return rows, nil
	case tagStrMat:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]string(nil), nil
		}
		lens := make([]int, n)
		for i := range lens {
			if lens[i], err = r.Count(1); err != nil {
				return nil, err
			}
		}
		rows := make([][]string, n)
		for i, l := range lens {
			if l == 0 {
				continue
			}
			if l > r.Remaining() {
				return nil, errTruncated
			}
			rows[i] = make([]string, l)
			for j := range rows[i] {
				if rows[i][j], err = r.String(); err != nil {
					return nil, err
				}
			}
		}
		return rows, nil
	case tagMapSF:
		n, err := r.Count(9)
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return nil, err
			}
			v, err := r.Float64()
			if err != nil {
				return nil, err
			}
			m[k] = v
		}
		return m, nil
	case tagExt:
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		ext := lookupExtName(name)
		if ext == nil {
			return nil, fmt.Errorf("unknown codec extension %q", name)
		}
		return ext.Decode(r)
	case tagGob:
		b, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		return gobDecode(b)
	default:
		return nil, fmt.Errorf("unknown value tag 0x%02x", tag)
	}
}
