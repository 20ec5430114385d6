package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The session state and the store's manifest each live in two files: a
// compacted base (session.json, manifest.json — JSON, rewritten whole only
// by a compaction) and beside it an append-only journal of the changes
// since (session.journal, manifest.journal). A journal is a sequence of
// frames:
//
//	uint32 length (little-endian) | uint32 CRC-32C of the payload | payload
//
// Appending is one write(2) and no fsync, so a record survives a process
// crash (the page cache has it) but not necessarily a power loss; only a
// compaction (WriteFileSync, then Journal.Remove) is durable. Replay
// (Frames) stops at the first torn or corrupt frame, so whatever a crash
// leaves behind reads as the longest intact prefix — an earlier state,
// never a mixed one.

// frameHeader is the length and checksum in front of every payload.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to buf as one journal frame.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// Frames calls fn with the payload of each intact frame of data, in
// order, until a frame is torn (shorter than its length says), fails its
// checksum, or is refused by fn. It returns the offset just past the last
// frame fn accepted: the length of the longest valid prefix. Payloads
// alias data, and nothing is allocated whatever the length fields claim.
func Frames(data []byte, fn func(payload []byte) bool) int {
	off := 0
	for len(data)-off >= frameHeader {
		n := binary.LittleEndian.Uint32(data[off:])
		if uint64(n) > uint64(len(data)-off-frameHeader) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) || !fn(payload) {
			break
		}
		off += frameHeader + int(n)
	}
	return off
}

// Journal appends frames to one file, opened on the first append. It is
// not safe for concurrent use: each owner serializes its appends.
type Journal struct {
	path string
	f    *os.File
	buf  []byte
	// err is the first failed append. It sticks until Remove: a frame cut
	// short by a failed write would hide every later frame from replay,
	// so nothing more is appended behind it.
	err error
}

// NewJournal returns the journal at path; nothing is touched on disk
// until the first Append.
func NewJournal(path string) *Journal { return &Journal{path: path} }

// Append writes payloads as consecutive frames in a single write.
func (j *Journal) Append(payloads ...[]byte) error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			j.err = fmt.Errorf("store: open journal: %w", err)
			return j.err
		}
		j.f = f
	}
	j.buf = j.buf[:0]
	for _, p := range payloads {
		j.buf = AppendFrame(j.buf, p)
	}
	if _, err := j.f.Write(j.buf); err != nil {
		j.err = fmt.Errorf("store: append journal: %w", err)
	}
	if cap(j.buf) > 64<<10 {
		j.buf = nil // a first run's whole snapshot: rare, not worth keeping
	}
	return j.err
}

// Remove closes and deletes the journal file — what a compaction does
// once the base it just wrote covers every frame — and clears a sticky
// append error. The next Append starts a new file.
func (j *Journal) Remove() error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.err = nil
	if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove journal: %w", err)
	}
	return nil
}

// Close closes the journal's file, leaving it on disk.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// WriteFileSync replaces path with data durably: a temp file in the same
// directory, fsync, rename over path, fsync of the directory. A crash at
// any point leaves either the old file or the new one, never a mix. The
// temp file's name is unique, so two processes compacting one shared
// directory cannot write into each other's.
func WriteFileSync(path string, data []byte) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	_, werr := tmp.Write(data)
	// CreateTemp opens 0600; the base files have always been 0644, so
	// tooling inspecting the directory keeps read access.
	merr := tmp.Chmod(0o644)
	serr := tmp.Sync()
	cerr := tmp.Close()
	for _, err := range []error{werr, merr, serr, cerr} {
		if err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("store: write %s: %w", name, err)
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: commit %s: %w", name, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir of %s: %w", name, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir of %s: %w", name, err)
	}
	return nil
}
