package exec

import (
	"context"
	"fmt"
)

// RowOp is the per-row implementation of a streamable operator: a unary
// row-wise transformation (map / flatMap / filter) from element type In
// to element type Out, built by the DSL's streaming helpers (NewRowOp)
// and registered in Program.Rows. The planner fuses linear chains of them
// (plan.Fused); the engine runs a chain as one scheduled unit, a typed
// push pipeline bound once per chain in which every row travels as its
// own Go type from the head's input slice to the tail's output slice.
// The fields are untyped only so stages of differing element types fit
// one slice: the one type assertion per stage happens at bind time, never
// per row. Batch execution (RunRowOp) is the same code over a chain of
// one, so streaming-on and streaming-off runs are byte-identical.
type RowOp struct {
	// Bind wraps the downstream sink, a func(Out), into this stage's
	// func(In): a map calls down once per row, a filter at most once, a
	// flatMap any number of times. A down of another type means the
	// neighbours disagree on the element type (ErrRowType).
	Bind func(down any) (up any, err error)
	// Drive pushes every row of the head's single input — an []In, or
	// untyped nil (pruned or empty upstream) for zero rows; anything else
	// is ErrRowType — into up, the chain's bound func(In), polling ctx
	// every rowCheckInterval rows. Interior inputs are never built.
	Drive func(ctx context.Context, input, up any) error
	// Collect returns the tail's func(Out), which appends to a fresh
	// []Out, and the finish func that hands that slice over as the value.
	Collect func() (sink any, finish func() any)
}

// NewRowOp returns the RowOp of one typed stage: stage wraps the
// downstream sink into the function applied to each input row.
func NewRowOp[In, Out any](stage func(down func(Out)) func(In)) *RowOp {
	return &RowOp{
		Bind: func(down any) (any, error) {
			d, ok := down.(func(Out))
			if !ok {
				return nil, fmt.Errorf("%w: operator emits %T, its consumer is a %T", ErrRowType, []Out(nil), down)
			}
			return stage(d), nil
		},
		Drive: func(ctx context.Context, input, up any) error {
			if input == nil {
				return nil
			}
			in, ok := input.([]In)
			if !ok {
				return fmt.Errorf("%w: operator expects %T input, got %T", ErrRowType, in, input)
			}
			return driveRows(ctx, in, up.(func(In)))
		},
		Collect: func() (any, func() any) {
			// Zero rows leave out a typed nil, matching the append-based
			// batch operators byte for byte under encoding.
			var out []Out
			return func(r Out) { out = append(out, r) }, func() any { return out }
		},
	}
}

// rowCheckInterval is how many head rows pass between context checks:
// prompt for cancellation, invisible next to per-row work.
const rowCheckInterval = 1024

// driveRows is the one row loop of the executor: a canceled run stops
// within rowCheckInterval head rows instead of draining a large input.
func driveRows[In any](ctx context.Context, in []In, up func(In)) error {
	for i, r := range in {
		if i%rowCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		up(r)
	}
	return nil
}

// RunRowOps executes a chain over the head's single input value: bind the
// tail's collector through every member back to the head, drive the
// head's rows through it; the tail's slice is the only value ever built.
// It is the engine's one way to run row operators — a fused unit passes
// its members, RunRowOp a chain of one.
func RunRowOps(ctx context.Context, ops []*RowOp, inputs []any) (any, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty row-operator chain", ErrBadPlan)
	}
	if len(inputs) != 1 {
		return nil, fmt.Errorf("%w: streamable operator expects 1 input, got %d", ErrBadPlan, len(inputs))
	}
	sink, finish := ops[len(ops)-1].Collect()
	for i := len(ops) - 1; i >= 0; i-- {
		up, err := ops[i].Bind(sink)
		if err != nil {
			return nil, fmt.Errorf("fused stage %d of %d: %w", i+1, len(ops), err)
		}
		sink = up
	}
	if err := ops[0].Drive(ctx, inputs[0], sink); err != nil {
		return nil, err
	}
	return finish(), nil
}

// RunRowOp executes one streamable operator in ordinary batch mode — its
// OpFunc when it is not part of a fused run: RunRowOps over a chain of one.
func RunRowOp(ctx context.Context, op *RowOp, inputs []any) (any, error) {
	return RunRowOps(ctx, []*RowOp{op}, inputs)
}
