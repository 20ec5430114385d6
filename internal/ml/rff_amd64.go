package ml

// useAVX2 is fixed at package init: the CPU has AVX2 and the operating
// system saves the YMM registers.
var useAVX2 = hasAVX2()

// hasAVX2 reports CPUID's AVX2 bit (leaf 7), with AVX and OSXSAVE (leaf 1),
// and XCR0's SSE and AVX state bits: the CPU has the instructions and the
// operating system saves the YMM registers across context switches.
func hasAVX2() bool

// projectAVX2 sets out[j] = Σ_i x[i]·wt[i·len(out)+j] for the columns
// j < len(out) &^ 31, 32 columns per pass, each sum in i order.
//
//go:noescape
func projectAVX2(out, wt, x []float64)

// projectDense sets out[j] to w_j·x for the transposed projection wt:
// the assembly kernel takes the columns in whole blocks of 32, projectGo
// the rest.
func projectDense(out, wt, x []float64) {
	wt = wt[:len(x)*len(out)] // the assembly reads this much, unchecked
	from := 0
	if useAVX2 {
		projectAVX2(out, wt, x)
		from = len(out) &^ 31
	}
	projectGo(out, wt, x, from)
}

// updateScoreAVX2 is updateScoreGo over every lane: len(x) rows of
// len(a) lanes, len(a) a multiple of 4, up to 16 lanes per pass down the
// rows, each score in i order.
//
//go:noescape
func updateScoreAVX2(w []float64, c float64, a, x, xn, s []float64)

// updateScore sets each class's weights w_k to c·w_k + a[k]·x and s[k] to
// the updated w_k·xn, in one pass: the assembly kernel over every lane
// where the CPU has AVX2, updateScoreGo over the classes' lanes elsewhere.
func (l *classLanes) updateScore(c float64, x, xn []float64) {
	if useAVX2 {
		// The assembly reads and writes this much, unchecked.
		w, a, s := l.w[:len(x)*l.kp], l.a[:l.kp], l.s[:l.kp]
		updateScoreAVX2(w, c, a, x, xn[:len(x)], s)
		return
	}
	updateScoreGo(l.w, l.kp, c, l.a[:l.k], x, xn, l.s)
}
