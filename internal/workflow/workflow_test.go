package workflow

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestErrorPropagation(t *testing.T) {
	out, err := Map(1, 1, func(int) (int, error) { return 7, fmt.Errorf("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the task's error", err)
	}
	if out[0] != 7 {
		t.Fatalf("out[0] = %d: a failed task's result must still be collected", out[0])
	}
}

func TestBoundedParallelism(t *testing.T) {
	var active, peak atomic.Int32
	_, err := Map(2, 8, func(int) (int, error) {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		active.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("parallelism exceeded bound: %d", p)
	}
}

func TestPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ran := make([]bool, 4)
		_, err := Map(workers, 4, func(i int) (int, error) {
			ran[i] = true
			if i == 1 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "task 1: panic: kaboom") {
			t.Fatalf("workers=%d: err = %v, want task 1's panic", workers, err)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: task %d did not run after a sibling panicked", workers, i)
			}
		}
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 20} {
		out, err := Map(workers, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 10 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapReportsFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 5, func(i int) (int, error) {
			if i == 1 || i == 3 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "task 1 failed") {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure", workers, err)
		}
	}
}

// goroutineID returns the current goroutine's number from its stack
// header ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestMapSerialRunsInline: with workers <= 1 every task runs on the
// caller's goroutine, in index order, so callers that number their work
// by call order see 0, 1, 2, ...
func TestMapSerialRunsInline(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		_, err := Map(workers, 6, func(i int) (int, error) {
			if id := goroutineID(); id != caller {
				return 0, fmt.Errorf("task %d ran on goroutine %s, caller is %s", i, id, caller)
			}
			order = append(order, i)
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != 6 {
			t.Fatalf("workers=%d: %d calls", workers, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: call order %v", workers, order)
			}
		}
	}
}
