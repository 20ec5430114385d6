//go:build !amd64

package ml

// projectDense sets out[j] to w_j·x for the transposed projection wt.
func projectDense(out, wt, x []float64) { projectGo(out, wt, x, 0) }

// updateScore sets each class's weights w_k to c·w_k + a[k]·x and s[k] to
// the updated w_k·xn, in one pass.
func (l *classLanes) updateScore(c float64, x, xn []float64) {
	updateScoreGo(l.w, l.kp, c, l.a[:l.k], x, xn, l.s)
}
