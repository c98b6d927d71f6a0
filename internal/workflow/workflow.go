// Package workflow is the one fan-out of the model-search campaign,
// standing in for the Parsl workflow the paper drives it with: Map runs
// independent tasks on a bounded set of goroutines and collects their
// results in order.
package workflow

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Map calls fn(0), …, fn(n-1) with at most workers calls in flight and
// returns their results in index order. Every task runs; the error
// returned is that of the lowest-indexed task that failed, and a task
// that panics fails with the panic value. With workers <= 1 the calls
// run inline, in index order, on the caller's goroutine.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("panic: %v", r)
			}
		}()
		out[i], errs[i] = fn(i)
	}
	if workers <= 1 {
		for i := range n {
			call(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(workers, n) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("workflow: task %d: %w", i, err)
		}
	}
	return out, nil
}
