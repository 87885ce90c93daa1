package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce: at every worker count — including more
// workers than items — each index runs exactly once, on a lane inside
// [0, min(workers, n)), and no two items hold one lane at the same time
// (which is what lets callers key scratch on the lane).
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 3, 1000} {
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Int32, workers)
			var shared atomic.Int32
			forEach(n, workers, func(i, lane int) {
				if lane < 0 || lane >= min(workers, n) {
					t.Errorf("workers=%d n=%d: item %d ran on lane %d", workers, n, i, lane)
					return
				}
				if busy[lane].Add(1) != 1 {
					shared.Add(1)
				}
				runs[i].Add(1)
				runtime.Gosched() // widen the window in which a shared lane would show
				busy[lane].Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			if got := shared.Load(); got != 0 {
				t.Errorf("workers=%d n=%d: %d items ran on a lane another item held", workers, n, got)
			}
		}
	}
}

// TestForEachInlineStartsNoGoroutine: one worker or one item runs on the
// calling goroutine, in index order — Parallelism 1 is the sequential
// pipeline, not a pool of one.
func TestForEachInlineStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 8}} {
		before := runtime.NumGoroutine()
		var order []int
		forEach(tc.n, tc.workers, func(i, lane int) {
			if lane != 0 {
				t.Errorf("n=%d workers=%d: inline item on lane %d", tc.n, tc.workers, lane)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("n=%d workers=%d: %d goroutines while running, %d before", tc.n, tc.workers, got, before)
			}
			order = append(order, i) // unsynchronised on purpose: -race flags a second goroutine
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: inline order %v", tc.n, tc.workers, order)
			}
		}
		if len(order) != tc.n {
			t.Fatalf("n=%d workers=%d: ran %d items", tc.n, tc.workers, len(order))
		}
	}
}
