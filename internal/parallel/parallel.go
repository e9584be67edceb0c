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
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n) goroutines
// and waits for them. Each takes the next index from a shared counter when
// it finishes the last, so a job costs one atomic add, not a channel
// handoff: a SORP round dispatches a few hundred jobs of a few microseconds
// each. The caller only waits: a caller that worked too would keep its
// processor, and the goroutine it started would sit queued behind it until
// another processor stole it, most of a short round. Dispatch stops as soon as ctx is cancelled — jobs already started
// run to completion, un-dispatched indices are never invoked — and the
// cancellation is reported as ctx.Err(), exactly when some index was not
// run. fn must handle its own synchronization for any state shared between
// indices; writing only to the i-th slot of a pre-sized results slice needs
// none.
func Do(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil // no work: not even a cancellation check, like a 0-iteration loop
	}
	p := &pool{n: n, fn: fn, done: ctx.Done()}
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.wg.Wait()
	if p.aborted.Load() {
		return ctx.Err()
	}
	return nil
}

// pool is one Do call: the jobs, the next index to hand out, and whether a
// goroutine found ctx cancelled with an index left.
type pool struct {
	n       int
	fn      func(int)
	done    <-chan struct{}
	next    atomic.Int64
	aborted atomic.Bool
	wg      sync.WaitGroup
}

// work runs jobs until none is left or ctx is cancelled.
func (p *pool) work() {
	for {
		i := int(p.next.Add(1) - 1)
		if i >= p.n {
			return
		}
		select {
		case <-p.done:
			p.aborted.Store(true)
			return
		default:
		}
		p.fn(i)
	}
}
