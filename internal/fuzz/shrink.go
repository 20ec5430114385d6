package fuzz

import "context"

// Shrink minimizes a failing case: it repeatedly tries structural
// reductions — truncating iterations after the failure, dropping whole
// iterations, dropping single edits, and dropping removable DAG nodes —
// and keeps any candidate that still violates the SAME invariant. The
// budget bounds the number of candidate executions; the result is a
// local minimum within that budget, returned with the violation it
// produces. The original case is never mutated.
func Shrink(ctx context.Context, c *Case, v *Violation, budget int) (*Case, *Violation) {
	cur := c.clone()
	fails := func(cand *Case) (*Violation, bool) {
		if budget <= 0 || ctx.Err() != nil {
			return nil, false
		}
		budget--
		cv, err := runInTemp(ctx, cand, nil)
		if err != nil || cv == nil {
			return nil, false
		}
		return cv, cv.Invariant == v.Invariant
	}

	// Everything after the failing iteration is noise by construction.
	if v.Iteration+1 < len(cur.Iters) {
		cand := cur.clone()
		cand.Iters = cand.Iters[:v.Iteration+1]
		if nv, ok := fails(cand); ok {
			cur, v = cand, nv
		}
	}

	for changed := true; changed && budget > 0; {
		changed = false
		// Drop scheduled restarts, cancellations and damages first: if the
		// failure reproduces without the interruption, the report should
		// say so.
		for i := 0; i < len(cur.Restarts) && budget > 0; i++ {
			cand := cur.clone()
			cand.Restarts = append(cand.Restarts[:i], cand.Restarts[i+1:]...)
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
		for i := 0; i < len(cur.Cancels) && budget > 0; i++ {
			cand := cur.clone()
			cand.Cancels = append(cand.Cancels[:i], cand.Cancels[i+1:]...)
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
		for i := 0; i < len(cur.Damages) && budget > 0; i++ {
			cand := cur.clone()
			cand.Damages = append(cand.Damages[:i], cand.Damages[i+1:]...)
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
		// Drop whole iterations (keep at least one).
		for i := 0; i < len(cur.Iters) && len(cur.Iters) > 1 && budget > 0; i++ {
			cand := cur.clone()
			cand.Iters = append(cand.Iters[:i], cand.Iters[i+1:]...)
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
		// Drop single edits.
		for i := 0; i < len(cur.Iters); i++ {
			for j := 0; j < len(cur.Iters[i]) && budget > 0; j++ {
				cand := cur.clone()
				cand.Iters[i] = append(cand.Iters[i][:j], cand.Iters[i][j+1:]...)
				if nv, ok := fails(cand); ok {
					cur, v = cand, nv
					changed = true
					j--
				}
			}
		}
		// Drop base nodes that nothing references: childless in the base
		// DAG, untouched by any surviving edit, and not the sole output.
		for i := 0; i < len(cur.Base) && len(cur.Base) > 1 && budget > 0; i++ {
			name := cur.Base[i].Name
			if hasChild(cur.Base, name) || editsReference(cur.Iters, name) {
				continue
			}
			if cur.Base[i].Output && countOutputs(cur.Base) == 1 {
				continue
			}
			cand := cur.clone()
			cand.Base = append(cand.Base[:i], cand.Base[i+1:]...)
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
		// Splice out interior nodes: children inherit the node's parents
		// (which precede it, so topological order is preserved). This is
		// what lets deep chains collapse.
		for i := 0; i < len(cur.Base) && len(cur.Base) > 1 && budget > 0; i++ {
			name := cur.Base[i].Name
			if editsReference(cur.Iters, name) {
				continue
			}
			if cur.Base[i].Output && countOutputs(cur.Base) == 1 {
				continue
			}
			cand := cur.clone()
			parents := cand.Base[i].Parents
			cand.Base = append(cand.Base[:i], cand.Base[i+1:]...)
			for j := range cand.Base {
				cand.Base[j].Parents = spliceParents(cand.Base[j].Parents, name, parents)
			}
			if nv, ok := fails(cand); ok {
				cur, v = cand, nv
				changed = true
				i--
			}
		}
	}
	return cur, v
}

// spliceParents replaces name in the parent list with repl (deduped,
// order preserved).
func spliceParents(parents []string, name string, repl []string) []string {
	out := make([]string, 0, len(parents)+len(repl))
	for _, p := range parents {
		if p == name {
			out = append(out, repl...)
		} else {
			out = append(out, p)
		}
	}
	return dedupe(out)
}

// editsReference reports whether any edit targets the named node or adds
// a node whose parents include it.
func editsReference(iters [][]Edit, name string) bool {
	for _, edits := range iters {
		for _, e := range edits {
			if e.Node == name {
				return true
			}
			if e.Add != nil {
				for _, p := range e.Add.Parents {
					if p == name {
						return true
					}
				}
			}
		}
	}
	return false
}
