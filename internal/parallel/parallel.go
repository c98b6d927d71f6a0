// Package parallel provides the chunked parallel-for primitive used by the
// benchmarks' accurate kernels and the NN engine. It follows the Effective
// Go pattern of a fixed worker count with completion signalling over a
// channel.
package parallel

import (
	"runtime"
	"sync"
)

// MaxWorkers returns the degree of parallelism used by For: the user's
// GOMAXPROCS setting.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// For executes fn(i) for every i in [0, n) using up to MaxWorkers
// goroutines, each processing a contiguous chunk. It blocks until all
// iterations complete. For small n the call degenerates to a serial loop,
// avoiding goroutine overhead.
func For(n int, fn func(i int)) {
	ForChunked(n, 0, fn)
}

// ForChunked is For with an explicit minimum chunk size: no goroutine is
// spawned for fewer than minChunk iterations. minChunk <= 0 selects a
// heuristic.
func ForChunked(n, minChunk int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if minChunk <= 0 {
		minChunk = 256
	}
	if workers == 1 || n <= minChunk {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForRange executes fn(lo, hi) over contiguous subranges covering [0, n),
// one call per worker. Useful when per-chunk setup (scratch buffers,
// accumulators) amortizes better than per-index calls.
func ForRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if workers == 1 || n < workers {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			if lo < hi {
				fn(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
}
