package ml

func init() {
	if useAVX2 {
		projectKernels = append(projectKernels, projectKernel{"avx2", func(out, wt, x []float64) {
			projectAVX2(out, wt, x)
			projectGo(out, wt, x, len(out)&^31)
		}})
	}
}
