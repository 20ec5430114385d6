//go:build !amd64

package ml

// projectDense sets out[j] to w_j·x for the transposed projection wt.
func projectDense(out, wt, x []float64) { projectGo(out, wt, x, 0) }
