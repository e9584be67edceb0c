package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/testutil"
)

func TestDoRunsEveryIndex(t *testing.T) {
	for _, procs := range []int{1, 3, 64} {
		testutil.SetProcs(t, procs)
		const n = 100
		seen := make([]int32, n)
		if err := Do(context.Background(), n, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

// The pool is min(GOMAXPROCS, n): that many jobs meet at a barrier, and no
// more are ever active at once.
func TestDoPoolIsGOMAXPROCS(t *testing.T) {
	for _, c := range []struct{ procs, n int }{{1, 20}, {3, 20}, {3, 2}} {
		testutil.SetProcs(t, c.procs)
		want := int32(min(c.procs, c.n))
		var active, peak atomic.Int32
		met := make(chan struct{})
		var once sync.Once
		if err := Do(context.Background(), c.n, func(int) {
			a := active.Add(1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			if a == want {
				once.Do(func() { close(met) })
			}
			select {
			case <-met:
			case <-time.After(2 * time.Second):
			}
			active.Add(-1)
		}); err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != want {
			t.Errorf("GOMAXPROCS=%d, %d jobs: %d active at once, want %d", c.procs, c.n, got, want)
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A 0-iteration loop performs no cancellation check.
	if err := Do(ctx, 0, func(int) { t.Fatal("fn called") }); err != nil {
		t.Fatalf("expected nil for zero jobs, got %v", err)
	}
}

func TestDoCancellationStopsDispatch(t *testing.T) {
	testutil.SetProcs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := Do(ctx, 1000, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d jobs ran", n)
	}
}
