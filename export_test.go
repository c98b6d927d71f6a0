package hpacml

// ModelCacheLen counts the shared model cache's entries.
func ModelCacheLen() int {
	n := 0
	modelCache.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}
