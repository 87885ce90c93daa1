package core

import (
	"sync"
	"sync/atomic"
)

// forEach is the package's one worker pool. It runs f(i, lane) exactly once
// for every i in [0, n) on min(workers, n) lanes: each lane pulls the next
// unclaimed index until none is left, so an early finisher moves on instead
// of idling behind a static split. lane is in [0, lanes) and no two calls
// hold one lane at the same time, which is what lets a caller key per-worker
// scratch on it. Lane 0 is the calling goroutine; with one lane (workers <= 1
// or n <= 1) nothing else is started and the loop runs in index order.
//
// f must write only state owned by its index or its lane. Every caller's
// items are independent and fill their own output rows, so the result cannot
// depend on which lane ran an item or in what order.
func forEach(n, workers int, f func(i, lane int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i, 0)
		}
		return
	}
	var next atomic.Int64
	run := func(lane int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i, lane)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for lane := 1; lane < workers; lane++ {
		go func() {
			defer wg.Done()
			run(lane)
		}()
	}
	run(0)
	wg.Wait()
}

// forEach is the pool with the extraction's bookkeeping attached. [0, n) is
// handed out in blocks of `block` consecutive indices (the pool's items), and
// around each block it polls the extraction context and credits the block to
// the live progress.
//
// Once the context has expired the remaining blocks are skipped, so a
// cancelled extraction gets its lanes back within one block. The rows the
// skipped blocks would have filled stay unwritten, which is safe because
// Extract's next stage boundary turns the cancellation into an error and
// discards everything.
func (t *tel) forEach(n, block, workers int, f func(i, lane int)) {
	t.prog.StartLoop(int64(n))
	forEach((n+block-1)/block, workers, func(b, lane int) {
		if t.cancelled() {
			return
		}
		lo := b * block
		hi := min(lo+block, n)
		for i := lo; i < hi; i++ {
			f(i, lane)
		}
		t.prog.Add(int64(hi - lo))
	})
}
