package ml

func init() {
	if useAVX2 {
		projectKernels = append(projectKernels, projectKernel{"avx2", func(out, wt, x []float64) {
			projectAVX2(out, wt, x)
			projectGo(out, wt, x, len(out)&^31)
		}})
		softmaxKernels = append(softmaxKernels, softmaxKernel{"avx2", func(l *classLanes, c float64, x, xn []float64) {
			updateScoreAVX2(l.w[:len(x)*l.kp], c, l.a, x, xn[:len(x)], l.s)
		}})
	}
}
