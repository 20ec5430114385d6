package collection

// Distinct returns the unique elements of c by key, keeping the first
// occurrence in collection order. The key function makes arbitrary
// element types deduplicable (Spark's distinct over keyed rows).
func Distinct[T any, K comparable](c *Collection[T], key func(T) K) *Collection[T] {
	c.env.barrier()
	seen := make(map[K]bool)
	var out []T
	for _, part := range c.parts {
		for _, v := range part {
			k := key(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
	}
	return New(c.env, out)
}
