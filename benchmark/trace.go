package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"helix"
)

// Span categories, one per layer boundary the harness can see from
// outside the program.
const (
	catCall  = "call"  // a call the harness makes: Open, Compile, Run, Close
	catPlan  = "plan"  // PlanEvent.PlanTime, ending at the event
	catNode  = "node"  // from NodeStarted, as long as the node's own time
	catFlush = "flush" // FlushEvent.Wait, ending at the event
	catOp    = "op"    // operator body of a bench-owned workload
)

// span is one timed interval. Parent is an index into tracer.spans, -1
// for a top-level span; Run identifies the rep the span belongs to.
type span struct {
	Name   string
	Cat    string
	Start  time.Duration // since tracer.origin
	End    time.Duration
	Parent int
	Run    int
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil *tracer is "tracing off": wrap returns the
// function unchanged, so untraced reps run the bare operator bodies.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	run    int
	// cur is the Session.Run span the observer attaches events to; open
	// maps an executing node's name to its span.
	cur  int
	open map[string]int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: -1, open: map[string]int{}}
}

func (t *tracer) add(name, cat string, start, end time.Time, parent int) int {
	t.spans = append(t.spans, span{Name: name, Cat: cat, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// call times one harness-level call as a top-level span. While fn runs,
// observer events and operator spans attach beneath it.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	t.mu.Lock()
	id := t.add(name, catCall, start, start, -1)
	t.cur = id
	t.mu.Unlock()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.origin)
	t.cur = -1
	t.mu.Unlock()
	return end.Sub(start)
}

// observe turns the program's run events into child spans of the
// current Session.Run span. Events carry durations, not start times, so
// plan and flush spans are placed ending at the event's arrival. A node
// retires when it goes out of scope, which can be long after it
// finished, so its span runs from NodeStarted for its own measured time.
func (t *tracer) observe(ev helix.RunEvent) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e := ev.(type) {
	case helix.PlanEvent:
		t.add("plan:"+e.Outcome.String(), catPlan, now.Add(-e.PlanTime), now, t.cur)
	case helix.NodeEvent:
		if e.Phase == helix.NodeStarted {
			t.open[e.Name] = t.add(e.Name+":"+e.State.String(), catNode, now, now, t.cur)
		} else if id, ok := t.open[e.Name]; ok {
			own := time.Duration(e.Seconds * float64(time.Second))
			t.spans[id].End = min(t.spans[id].Start+own, now.Sub(t.origin))
			delete(t.open, e.Name)
		}
	case helix.FlushEvent:
		t.add("flush", catFlush, now.Add(-e.Wait), now, t.cur)
	}
}

// wrap puts an operator body of a bench-owned workload in a span whose
// parent is the node span of the same name.
func (t *tracer) wrap(name string, fn helix.Func) helix.Func {
	if t == nil {
		return fn
	}
	return func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		start := time.Now()
		out, err := fn(ctx, in)
		end := time.Now()
		t.mu.Lock()
		parent, ok := t.open[name]
		if !ok {
			parent = t.cur
		}
		t.add(name, catOp, start, end, parent)
		t.mu.Unlock()
		return out, err
	}
}

// selfByCat sums, per category, each span's self time: its duration
// minus the part of that interval its child spans cover.
func (t *tracer) selfByCat() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Cat] += (s.End - s.Start - covered).Seconds()
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). pid is the rep; harness calls,
// plan and flush share lane 0; concurrent node spans get lanes of their
// own, and an operator span rides its node's lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	lane := make([]int, len(t.spans))
	var busyUntil []time.Duration // per node lane, within the current rep
	lastRun := -1
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	for _, i := range order {
		s := t.spans[i]
		if s.Run != lastRun {
			busyUntil, lastRun = busyUntil[:0], s.Run
		}
		switch s.Cat {
		case catNode:
			l := 0
			for l < len(busyUntil) && busyUntil[l] > s.Start {
				l++
			}
			if l == len(busyUntil) {
				busyUntil = append(busyUntil, 0)
			}
			busyUntil[l] = s.End
			lane[i] = l + 1
		case catOp:
			if s.Parent >= 0 {
				lane[i] = lane[s.Parent]
			}
		}
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: s.Run, Tid: lane[i],
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
