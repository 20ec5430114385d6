package helix

import (
	"context"

	"helix/internal/exec"
)

// Streaming row-wise operators. MapRows, FilterRows, and FlatMapRows
// declare operators the planner may fuse: a linear chain of them executes
// as one scheduled unit, a typed push pipeline in which each head row is
// handed from stage to stage as a plain function call, so only the
// chain's endpoints are ever fully built — no per-operator barrier, no
// interior collection proportional to the data, and no engine work per
// row beyond those calls. Fusion is a pure execution strategy: each
// member keeps its own chain signature, so plan fingerprints,
// materialization keys, and cross-iteration reuse behave exactly as they
// do for batch operators. Every Session fuses; an engine planning with
// fusion off (plan.Options.Streaming false) runs each operator in batch,
// and exec.TestPropertyFusedMatchesBatch proves both byte-identical.
//
// Adjacent operators must agree on the element type; a mismatch (or an
// input value that is not an []In) fails the run with ErrBadWorkflow
// before any row function is called.
//
// They are free functions rather than Workflow methods because Go
// methods cannot introduce type parameters.

// MapRows declares a row-wise 1:1 transformation over a []In input,
// producing []Out. params must identify f for equivalence tracking, as
// with every operator declaration. The operator is an Extractor (feature
// extraction/transformation ∈ F) and is streamable: the planner may fuse
// it with adjacent row-wise operators.
func MapRows[In, Out any](w *Workflow, name, params string, f func(In) Out, input *Op) *Op {
	return declareRowOp(w, name, extractorKind, params, input, func(down func(Out)) func(In) {
		return func(row In) { down(f(row)) }
	})
}

// FilterRows declares a row-wise predicate over a []T input, keeping the
// rows for which pred is true. Streamable, like MapRows.
func FilterRows[T any](w *Workflow, name, params string, pred func(T) bool, input *Op) *Op {
	return declareRowOp(w, name, extractorKind, params, input, func(down func(T)) func(T) {
		return func(row T) {
			if pred(row) {
				down(row)
			}
		}
	})
}

// FlatMapRows declares a row-wise 1:N expansion over a []In input,
// producing []Out — the streaming analogue of Scanner's flatMap-over-
// records behavior, and declared as a Scanner (parsing ∈ F). Streamable,
// like MapRows.
func FlatMapRows[In, Out any](w *Workflow, name, params string, f func(In) []Out, input *Op) *Op {
	return declareRowOp(w, name, scannerKind, params, input, func(down func(Out)) func(In) {
		return func(row In) {
			for _, u := range f(row) {
				down(u)
			}
		}
	})
}

// declareRowOp declares one streamable operator: the RowOp the engine
// fuses, plus a batch OpFunc over the very same RowOp — sharing the
// per-row implementation is what makes streaming-on and streaming-off
// produce byte-identical values.
func declareRowOp[In, Out any](w *Workflow, name string, kind opKind, params string, input *Op, stage func(down func(Out)) func(In)) *Op {
	row := exec.NewRowOp(stage)
	fn := func(ctx context.Context, inputs []Value) (Value, error) {
		return exec.RunRowOp(ctx, row, inputs)
	}
	var o *Op
	switch kind {
	case scannerKind:
		o = w.Scanner(name, params, fn, input)
	default:
		o = w.Extractor(name, params, fn, input)
	}
	o.row = row
	return o
}

// opKind distinguishes the DSL declaration a streamable operator lowers
// to; the core.Kind itself lives in internal/core.
type opKind int

const (
	extractorKind opKind = iota
	scannerKind
)
