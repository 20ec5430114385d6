package store

import (
	"sync"

	"helix/internal/clock"
)

// DefaultWriters is the size of the background writer pool the first
// PutAsync starts. Materialization is I/O-bound (and, under disk simulation, sleep-bound),
// so a small pool suffices to keep writes off the computation's critical
// path without swamping the disk.
const DefaultWriters = 4

// DefaultQueueDepth bounds the write-behind queue. A full queue applies
// backpressure to PutAsync callers, bounding the memory pinned by values
// awaiting serialization.
const DefaultQueueDepth = 64

// WriteRequest is one unit of materialization work: handed to the writer
// pool (PutAsync) or processed in place on the caller's goroutine (Write).
// Exactly one of Data or Value supplies the payload: when Data is nil the
// processor encodes Value (with the store's codec) — on a writer
// goroutine under PutAsync, keeping serialization cost off the caller's
// critical path.
type WriteRequest struct {
	Key       string
	Name      string
	Iteration int

	// Tenant labels the publishing tenant for shared-mode byte accounting;
	// empty for private stores.
	Tenant string
	// Budget, when positive, caps the bytes the request's account holds:
	// Tenant's in a shared store, every byte of a private one. The write
	// is admitted by its encoded size iff those bytes, plus the budgeted
	// writes admitted before it and not yet landed, plus its own fit;
	// otherwise it is declined like a false Decide. Zero or negative: no
	// cap.
	Budget int64

	// Value is encoded on the writer goroutine when Data is nil. The pool
	// holds the only required reference: callers may drop theirs
	// immediately after PutAsync returns (eager cache pruning, §5.4).
	Value any
	// Data, when non-nil, is the pre-encoded payload.
	Data []byte

	// Decide, when non-nil, is consulted after encoding with the encoded
	// size; returning false drops the write. This is how the engine defers
	// the materialization-policy check (Algorithm 2 needs the size) to
	// whoever encodes, for values that cannot report their size cheaply.
	// It must be safe to call from a writer goroutine.
	Decide func(size int64) bool

	// Clock times the request (WriteOutcome.Secs, Entry.WriteTime) and
	// takes its simulated-disk throttle; nil is the host's clock.
	Clock clock.Clock

	// OnDone, when non-nil, receives the outcome on the goroutine that
	// processed the request. Under PutAsync it runs before the request is
	// counted as drained, so everything it writes is visible to any
	// goroutine that returns from Flush — callers need no additional
	// synchronization for Flush-ordered reads.
	OnDone func(WriteOutcome)
}

// WriteOutcome reports how one WriteRequest ended.
type WriteOutcome struct {
	// Entry is the recorded entry; zero unless Written, except when an
	// equivalent entry was already in the store (a shared-mode publish
	// another session won) — then it is that entry (Written false, Err
	// nil), whose size the caller can adopt.
	Entry Entry
	// Written reports whether the payload landed in the store. False when
	// Decide or the Budget declined, an equivalent entry already existed,
	// or Err or EncodeErr is set.
	Written bool
	// Err is the disk write error, if any. A failed write leaves the store
	// without the entry — callers degrade to "not materialized".
	Err error
	// EncodeErr is the codec's refusal of Value (typically a type behind
	// an interface that was never passed to RegisterValueType). It is kept
	// apart from Err because it is not a fault of the disk and not
	// transient: the same type fails the same way on every later attempt,
	// so it never fails a Flush, and the caller decides whether to stop
	// asking.
	EncodeErr error
	// Secs is the time spent processing the request: serialization, the
	// policy check, the file write, simulated-disk throttle, and (inline
	// only) the manifest update. Queue wait is excluded — this is the cost
	// the write-behind design moves off the critical path.
	Secs float64
}

// OnDisk reports whether the request's artifact is known to be in the
// store: this request wrote it, or a deduplicated one found it there
// (Entry is then what is on disk, whatever its size).
func (o WriteOutcome) OnDisk() bool {
	return o.Written || (o.Err == nil && o.Entry.Key != "")
}

// writerPool is the bounded background pool behind PutAsync/Flush/Close.
type writerPool struct {
	// mu guards the pool's counters and error slot; workers perform the
	// actual disk writes after dequeuing, outside the lock.
	//lint:nolockio
	mu      sync.Mutex
	cond    *sync.Cond
	queue   chan WriteRequest
	pending int
	started bool
	stopped bool
	stop    chan struct{}
	err     error // first async write error since the last Flush
}

func (w *writerPool) init() {
	w.cond = sync.NewCond(&w.mu)
	w.stop = make(chan struct{})
}

// PutAsync enqueues a write-behind request and returns as soon as it is
// queued; encoding, the deferred policy check, the disk write, and the
// manifest update all happen on a background writer goroutine. A full
// queue blocks (backpressure). After Close the request is processed in
// place on the caller's goroutine instead (Write).
//
// Requests for the same key are not ordered relative to one another; the
// engine never issues concurrent writes for one key (retirement is
// once-per-node), and the claim on the key's file (lockKey) keeps any
// such race consistent.
func (s *Store) PutAsync(req WriteRequest) {
	w := &s.wp
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		s.Write(req)
		return
	}
	if !w.started {
		w.started = true
		w.queue = make(chan WriteRequest, DefaultQueueDepth)
		for range DefaultWriters {
			go s.writerLoop()
		}
	}
	w.pending++
	queue := w.queue
	w.mu.Unlock()
	queue <- req
}

// Write processes one request in place on the caller's goroutine — what a
// writer goroutine does for a queued one — and returns the outcome after
// OnDone has seen it. No Flush barrier is guaranteed to follow, so the
// manifest journal records it inline like any synchronous Put.
func (s *Store) Write(req WriteRequest) WriteOutcome {
	out := s.processWrite(req, true)
	if req.OnDone != nil {
		req.OnDone(out)
	}
	return out
}

// writerLoop drains the queue until Close. The pending count is
// decremented only after OnDone returns, so a Flush that observes zero
// pending requests happens-after every callback's effects.
func (s *Store) writerLoop() {
	w := &s.wp
	for {
		select {
		case req := <-w.queue:
			out := s.processWrite(req, false)
			if req.OnDone != nil {
				req.OnDone(out)
			}
			w.mu.Lock()
			if out.Err != nil && w.err == nil {
				w.err = out.Err
			}
			w.pending--
			if w.pending == 0 {
				w.cond.Broadcast()
			}
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// processWrite performs one request: encode if needed, consult Decide,
// admit against the Budget and write. Timing starts here — queue wait is
// deliberately not charged as materialization cost. With syncManifest
// false (writer goroutines) the manifest record is deferred to the Flush
// barrier instead of appended per write.
func (s *Store) processWrite(req WriteRequest, syncManifest bool) WriteOutcome {
	c := req.Clock
	if c == nil {
		c = clock.Real{}
	}
	start := c.Now()
	if ent, ok := s.Entry(req.Key); ok {
		// An equivalent result landed since the request was enqueued. The
		// existing entry is reported so callers can adopt the artifact's
		// size.
		return WriteOutcome{Entry: ent, Secs: c.Since(start).Seconds()}
	}
	data := req.Data
	if data == nil {
		var err error
		data, err = s.codec().Encode(req.Value)
		if err != nil {
			// Unserializable values are not materialized; the encode attempt
			// is still charged as materialization overhead.
			return WriteOutcome{EncodeErr: err, Secs: c.Since(start).Seconds()}
		}
	}
	if req.Decide != nil && !req.Decide(int64(len(data))) {
		return WriteOutcome{Secs: c.Since(start).Seconds()}
	}
	ent, wrote, err := s.putBytes(c, req, data, syncManifest)
	return WriteOutcome{
		Entry:   ent,
		Written: wrote && err == nil,
		Err:     err,
		Secs:    c.Since(start).Seconds(),
	}
}

// Flush is the write-behind barrier: it blocks until every request
// enqueued before the call (and any enqueued while it waits) has fully
// drained — payload on disk, manifest journal appended, OnDone returned. It
// returns the first background write error since the previous Flush, if
// any. Callers that need cross-iteration reuse or a durable manifest
// (Session.Run, Session.Close) call this between iterations.
func (s *Store) Flush() error {
	w := &s.wp
	w.mu.Lock()
	for w.pending > 0 {
		w.cond.Wait()
	}
	err := w.err
	w.err = nil
	w.mu.Unlock()
	// Batched manifest update: writer goroutines only mark their keys
	// dirty; the journal records them here, in one append per barrier.
	s.flushManifest()
	return err
}

// Close flushes pending writes, stops the writer pool and compacts the
// manifest: the base is rewritten durably and the journal removed — the
// store's only fsyncs. It returns the first error among the barrier's and
// every journal append or compaction since the store opened or last
// closed. The store remains usable afterwards: subsequent PutAsync calls
// degrade to synchronous writes on the caller's goroutine, and their
// records start a new journal.
//
// stopped is set before the flush: from that point every new PutAsync
// takes the synchronous path, so once Flush observes a drained queue no
// producer can enqueue again and the workers can be stopped without
// stranding a request.
func (s *Store) Close() error {
	w := &s.wp
	w.mu.Lock()
	already := w.stopped
	w.stopped = true
	w.mu.Unlock()
	err := s.Flush()
	if !already {
		close(w.stop)
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	if s.journaled {
		s.compactManifest()
	}
	if err == nil {
		err = s.persistErr
	}
	s.persistErr = nil
	return err
}
