package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
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
	// Name identifies the codec ("binary", "gob") for diagnostics and
	// configuration fingerprints.
	Name() string
	// Encode returns the on-disk representation of value.
	Encode(value any) ([]byte, error)
	// Decode reverses Encode. Implementations are expected to sniff the
	// format header and fall back to legacy gob payloads, so a store
	// directory written by an older build keeps loading.
	Decode(data []byte) (any, error)
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
// A payload that does not start with the magic is treated as a legacy
// gob artifact and decoded by gob: old store directories migrate in
// place, entry by entry, with no rewrite step.
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

func (BinaryCodec) Name() string { return "binary" }

// GobCodec is the legacy encoding: the reference encoder the codec tests
// and the fuzz harness compare values through, and a Store.Codec a test
// can install. Sessions always write BinaryCodec.
type GobCodec struct{}

func (GobCodec) Name() string { return "gob" }

func (GobCodec) Encode(value any) ([]byte, error) { return Encode(value) }

// Decode sniffs for the binary header so a directory that once held
// binary artifacts keeps loading after a switch back to gob.
func (GobCodec) Decode(data []byte) (any, error) {
	if hasBinaryHeader(data) {
		return BinaryCodec{}.Decode(data)
	}
	return gobDecode(data)
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
	// Name is the stable on-disk type tag. Renaming it orphans artifacts.
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
	w := NewWriter()
	w.buf = append(w.buf, binaryMagic[:]...)
	w.buf = append(w.buf, binaryVersion)
	if err := w.Value(value); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return w.buf, nil
}

func (BinaryCodec) Decode(data []byte) (any, error) {
	if !hasBinaryHeader(data) {
		// Legacy artifact written before the binary codec existed.
		return gobDecode(data)
	}
	if data[4] != binaryVersion {
		return nil, fmt.Errorf("store: decode: unsupported binary format version %d", data[4])
	}
	r := NewReader(data[5:])
	v, err := r.Value()
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

// Writer serializes values into the binary format. It is the primitive
// surface extensions build on; one Writer serves one message, carrying
// the message-scoped intern table.
type Writer struct {
	buf    []byte
	intern map[string]uint64
	tmp    [binary.MaxVarintLen64]byte
}

// NewWriter returns an empty Writer (no header — BinaryCodec.Encode owns
// the header; extensions receive a Writer mid-message).
func NewWriter() *Writer { return &Writer{intern: make(map[string]uint64)} }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
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

// String appends an interned string: 0 followed by len+bytes the first
// time a string is seen (assigning it the next id), or id+1 as a
// back-reference on every later occurrence.
func (w *Writer) String(s string) {
	if id, ok := w.intern[s]; ok {
		w.Uvarint(id + 1)
		return
	}
	w.intern[s] = uint64(len(w.intern))
	w.Uvarint(0)
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends a length-prefixed byte slice (no interning).
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Float64s appends a flat column of float64s (count + raw values). The
// buffer is grown once and filled in place: per-element append growth
// would copy megabyte columns several times over.
func (w *Writer) Float64s(fs []float64) {
	w.Uvarint(uint64(len(fs)))
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(fs))[:off+8*len(fs)]
	for _, f := range fs {
		binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(f))
		off += 8
	}
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
		w.Uvarint(uint64(len(v)))
		w.bitmap(v)
	case [][]float64:
		w.buf = append(w.buf, tagFloatMat)
		w.Uvarint(uint64(len(v)))
		total := 0
		for _, row := range v {
			w.Uvarint(uint64(len(row)))
			total += len(row)
		}
		off := len(w.buf)
		w.buf = slices.Grow(w.buf, 8*total)[:off+8*total]
		for _, row := range v {
			for _, f := range row {
				binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(f))
				off += 8
			}
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

// bitmap packs bools 8 per byte, LSB first.
func (w *Writer) bitmap(v []bool) {
	var cur byte
	for i, b := range v {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			w.buf = append(w.buf, cur)
			cur = 0
		}
	}
	if len(v)&7 != 0 {
		w.buf = append(w.buf, cur)
	}
}

// Reader deserializes the binary format. Every method bounds-checks, so
// truncated or corrupt payloads surface as errors, never panics.
type Reader struct {
	data   []byte
	pos    int
	intern []string
}

// NewReader wraps a payload (past the header) for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

var errTruncated = fmt.Errorf("truncated payload")

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return u, nil
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() (int64, error) {
	i, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return i, nil
}

// Float64 reads 8 little-endian bytes.
func (r *Reader) Float64() (float64, error) {
	if r.pos+8 > len(r.data) {
		return 0, errTruncated
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return f, nil
}

// Bool reads one byte.
func (r *Reader) Bool() (bool, error) {
	if r.pos >= len(r.data) {
		return false, errTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b != 0, nil
}

// String reads an interned string reference or literal.
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
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.pos) {
		return "", errTruncated
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	r.intern = append(r.intern, s)
	return s, nil
}

// Bytes reads a length-prefixed byte slice (aliasing the input).
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, errTruncated
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// count reads a length prefix and sanity-bounds it against the remaining
// bytes (each element costs at least minBytes), so a corrupt length
// cannot trigger a huge allocation.
func (r *Reader) count(minBytes int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && n > uint64(len(r.data)-r.pos)/uint64(minBytes) {
		return 0, errTruncated
	}
	return int(n), nil
}

// Float64s reads a flat column written by Writer.Float64s.
func (r *Reader) Float64s() ([]float64, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	fs := make([]float64, n)
	col := r.data[r.pos:]
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
	}
	r.pos += 8 * n
	return fs, nil
}

// Value reads one tagged value.
func (r *Reader) Value() (any, error) {
	if r.pos >= len(r.data) {
		return nil, errTruncated
	}
	tag := r.data[r.pos]
	r.pos++
	switch tag {
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
		b, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case tagInts:
		n, err := r.count(1)
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
		n, err := r.count(1)
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
		n, err := r.count(1)
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
		n, err := r.count(0)
		if err != nil {
			return nil, err
		}
		if uint64(n) > uint64(len(r.data)-r.pos)*8 {
			return nil, errTruncated
		}
		if n == 0 {
			return []bool(nil), nil
		}
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = r.data[r.pos+i/8]&(1<<(i&7)) != 0
		}
		r.pos += (n + 7) / 8
		return bs, nil
	case tagFloatMat:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]float64(nil), nil
		}
		lens := make([]int, n)
		total := 0
		for i := range lens {
			l, err := r.count(0)
			if err != nil {
				return nil, err
			}
			lens[i] = l
			total += l
		}
		if uint64(total) > uint64(len(r.data)-r.pos)/8 {
			return nil, errTruncated
		}
		flat := make([]float64, total)
		col := r.data[r.pos:]
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
		}
		r.pos += 8 * total
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
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]string(nil), nil
		}
		lens := make([]int, n)
		for i := range lens {
			if lens[i], err = r.count(0); err != nil {
				return nil, err
			}
		}
		rows := make([][]string, n)
		for i, l := range lens {
			if l == 0 {
				continue
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
		n, err := r.count(2)
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
