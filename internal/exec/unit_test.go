package exec

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"helix/internal/core"
)

// fusedProgram builds source → parse → norm → keep → model → score: an
// ordinary source of rows ints, a three-member streamable DPR chain (one
// fused unit unless streaming is disabled), an L/I operator and the PPR
// output. Every row function calls perRow once per row it sees; keepSig
// is the chain tail's operator signature, so a second program can edit it.
func fusedProgram(rows int, keepSig string, perRow func()) *Program {
	d := core.NewDAG()
	src := d.MustAddNode("source", core.KindSource, core.DPR, "source-v1", true)
	parse := d.MustAddNode("parse", core.KindExtractor, core.DPR, "parse-v1", true)
	norm := d.MustAddNode("norm", core.KindExtractor, core.DPR, "norm-v1", true)
	keep := d.MustAddNode("keep", core.KindExtractor, core.DPR, keepSig, true)
	model := d.MustAddNode("model", core.KindLearner, core.LI, "model-v1", true)
	score := d.MustAddNode("score", core.KindReducer, core.PPR, "score-v1", true)
	mustEdge(d, src, parse)
	mustEdge(d, parse, norm)
	mustEdge(d, norm, keep)
	mustEdge(d, keep, model)
	mustEdge(d, model, score)
	d.MarkOutput(score)
	prog := &Program{
		DAG: d,
		Fns: map[*core.Node]OpFunc{
			src: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(opDelay)
				return make([]int, rows), nil
			},
			model: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(opDelay)
				return len(in[0].([]int)), nil
			},
			score: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(opDelay)
				return float64(in[0].(int)) / 2, nil
			},
		},
		Rows: map[*core.Node]*RowOp{
			parse: mapOp(func(v int) int { perRow(); return v + 1 }),
			norm:  mapOp(func(v int) int { perRow(); return v * 2 }),
			keep:  filterOp(func(v int) bool { perRow(); return true }),
		},
	}
	for n, op := range prog.Rows {
		n.Streamable = true
		prog.Fns[n] = func(ctx context.Context, in []any) (any, error) { return RunRowOp(ctx, op, in) }
	}
	return prog
}

// nodeEvents records a run's NodeEvents as "phase name state[ fused]".
func nodeEvents(into *[]string) Observer {
	return func(ev Event) {
		ne, ok := ev.(NodeEvent)
		if !ok {
			return
		}
		s := ne.Phase.String() + " " + ne.Name + " " + ne.State.String()
		if ne.Fused {
			s += " fused"
		}
		*into = append(*into, s)
	}
}

// TestNodeEventOrderGolden pins the node lifecycle an observer sees at
// Parallelism 1 for a program mixing ordinary operators, a load and a
// fused chain: every member of a unit starts before the unit runs, the
// unit's completion retires the head's parent, then the interiors, and
// the tail retires like any node — when its last consumer finishes.
func TestNodeEventOrderGolden(t *testing.T) {
	e := newEngine(t)
	e.Opts.Parallelism = 1
	var got []string
	e.Opts.Observer = nodeEvents(&got)
	ctx := context.Background()

	// The same lifecycle whether the chain's input was computed or loaded.
	golden := func(source string) []string {
		return []string{
			"start source " + source,
			"start parse Sc fused",
			"start norm Sc fused",
			"start keep Sc fused",
			"retire source " + source,
			"retire parse Sc fused",
			"retire norm Sc fused",
			"start model Sc",
			"retire keep Sc fused",
			"start score Sc",
			"retire model Sc",
			"retire score Sc",
		}
	}
	first := fusedProgram(8, "keep-v1", func() {})
	if _, err := e.Run(ctx, first, nil, 0); err != nil {
		t.Fatal(err)
	}
	if want := golden("Sc"); !slices.Equal(got, want) {
		t.Errorf("iteration 0 node events:\n got %q\nwant %q", got, want)
	}

	// Editing the tail makes the chain (whose interiors are never
	// materialized) and everything downstream recompute from the loaded
	// source.
	got = nil
	second := fusedProgram(8, "keep-v2", func() {})
	if _, err := e.Run(ctx, second, first.DAG, 1); err != nil {
		t.Fatal(err)
	}
	if want := golden("Sl"); !slices.Equal(got, want) {
		t.Errorf("reuse iteration node events:\n got %q\nwant %q", got, want)
	}

	// A unit cancelled mid-chain started every member and retires none
	// (nor its parent, whose consumer never finished).
	got = nil
	e = newEngine(t)
	e.Opts.Parallelism = 1
	e.Opts.Observer = nodeEvents(&got)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	calls := 0
	third := fusedProgram(3*rowCheckInterval, "keep-v1", func() {
		if calls++; calls == 10 {
			cancel()
		}
	})
	if _, err := e.Run(cctx, third, nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if want := golden("Sc")[:4]; !slices.Equal(got, want) {
		t.Errorf("cancelled run node events:\n got %q\nwant %q", got, want)
	}
}
