// Package parallel provides the bounded worker pool shared by the
// scheduling core and the lab's sweeps (internal/experiment: one job per
// configuration, per α or per Table 5 case). The paper's two-phase
// heuristic is embarrassingly parallel at two points — phase-1 individual
// file scheduling (every file is planned against an unbounded-storage
// assumption, §3.2) and phase-2 per-candidate victim evaluation (every
// candidate reschedule works on its own ledger view, §4.4) — and the pool
// is how both fan that work across cores without giving up determinism:
// callers dispatch work by index and merge results in index order, so the
// outcome is byte-identical to a sequential run regardless of pool size or
// completion order. The pool is the runtime's: min(GOMAXPROCS, n)
// goroutines, so a run is sized with GOMAXPROCS (or go test -cpu), not with
// an option.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Do runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n) goroutines.
// Dispatch stops as soon as ctx is cancelled — jobs already started run to
// completion, un-dispatched indices are never invoked — and the cancellation
// is reported as ctx.Err(). fn must handle its own synchronization for any
// state shared between indices; writing only to the i-th slot of a
// pre-sized results slice needs none.
func Do(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil // no work: not even a cancellation check, like a 0-iteration loop
	}
	workers := min(runtime.GOMAXPROCS(0), n)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	aborted := false
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			aborted = true
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if aborted {
		return ctx.Err()
	}
	return nil
}
