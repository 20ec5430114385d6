// Package ctxloop exercises the bounded-stride cancellation rule for
// per-row streaming loops.
package ctxloop

import "context"

type row struct{ id int }

type seq func(yield func(row) bool)

func drainUnchecked(ctx context.Context, rows seq) int {
	n := 0
	for range rows { // want "streaming loop never polls ctx"
		n++
	}
	return n
}

func drainStride(ctx context.Context, rows seq) int {
	n := 0
	for r := range rows {
		_ = r
		n++
		if n%1024 == 0 && ctx.Err() != nil {
			break
		}
	}
	return n
}

func drainChan(ctx context.Context, ch chan row) int {
	n := 0
	for range ch { // want "streaming loop never polls ctx"
		n++
	}
	return n
}

// noCtx takes no context; cancellation is the caller's concern.
func noCtx(rows seq) int {
	n := 0
	for range rows {
		n++
	}
	return n
}

// The push executor's row loop: a slice ranged in a context-taking
// function, each row handed to a sink parameter.

func pushUnchecked(ctx context.Context, rows []row, sink func(row)) {
	for _, r := range rows { // want "streaming loop never polls ctx"
		sink(r)
	}
}

func pushStride(ctx context.Context, rows []row, sink func(row)) error {
	for i, r := range rows {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sink(r)
	}
	return nil
}

// A context-taking literal is held to the same rule as a declaration.
func pushFromLiteral(rows []row, sink func(row)) func(context.Context) {
	return func(ctx context.Context) {
		for _, r := range rows { // want "streaming loop never polls ctx"
			sink(r)
		}
	}
}

// sumRows ranges a slice without pushing anywhere: a bounded in-memory
// pass, not a stream.
func sumRows(ctx context.Context, rows []row, weigh func(row) int) int {
	total := 0
	for _, r := range rows {
		total += r.id
	}
	return total + weigh(row{})
}
