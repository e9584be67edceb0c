package horizon_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

const benchEpochs = 10

// benchRig is the 500-request workload the acceptance criterion names:
// 10 storages × 5 users × 10 reservations each, replayed over 10 epochs.
func benchRig(b *testing.B) *testutil.Rig {
	b.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages:        10,
		UsersPerStorage: 5,
		RequestsPerUser: 10,
		Titles:          50,
		Seed:            7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkHorizonAdvance replays the 500-request trace through 10
// incremental epoch advances: each epoch submits the reservations starting
// in its lookahead window and commits everything behind the new horizon,
// so later epochs only re-plan a sliver of the schedule. Compare against
// BenchmarkFullResolve, which re-runs the one-shot scheduler from scratch
// at every epoch boundary — the only strategy the repo had before
// internal/horizon.
func BenchmarkHorizonAdvance(b *testing.B) {
	r := benchRig(b)
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	step := simtime.Duration(int64(window) / benchEpochs)
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := horizon.New(r.Model, horizon.Config{})
		next := 0
		for k := 1; k <= benchEpochs; k++ {
			h := simtime.Time(int64(step) * int64(k))
			for next < len(reqs) && reqs[next].Start < h.Add(step) {
				if _, err := svc.Submit(reqs[next].Start, reqs[next]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			if _, err := svc.Advance(ctx, h); err != nil {
				b.Fatal(err)
			}
		}
		if next != len(reqs) {
			b.Fatalf("replay bug: %d of %d submitted", next, len(reqs))
		}
	}
}

// BenchmarkFullResolve answers the same 10 epoch boundaries by re-solving
// the whole accumulated batch from scratch each time — the quadratic
// baseline the rolling horizon replaces.
func BenchmarkFullResolve(b *testing.B) {
	r := benchRig(b)
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	step := simtime.Duration(int64(window) / benchEpochs)
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := 0
		for k := 1; k <= benchEpochs; k++ {
			h := simtime.Time(int64(step) * int64(k))
			for next < len(reqs) && reqs[next].Start < h.Add(step) {
				next++
			}
			if _, err := scheduler.Schedule(ctx, r.Model, reqs[:next], scheduler.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHorizonAdvanceHistory times one epoch — 100 reservations and the
// close that plans them — on a service that has already committed 2 000 or
// 20 000 requests, in memory and durable with a snapshot due at the close.
// The trace has one density throughout (20 000 requests a day on storages
// too large to overflow, the horizon lagging 15 minutes behind intake), so
// both sizes re-plan the same ~300 requests and what separates them is what
// a close does per request of frozen history: the split, the prefix copy,
// the commit predicate's two halves, the snapshot. BenchmarkHorizonAdvance
// above has at most 500 requests of history and sees none of that.
func BenchmarkHorizonAdvanceHistory(b *testing.B) {
	trace := newHistoryTrace(b)
	for _, history := range []int{2000, 20000} {
		for _, durable := range []bool{false, true} {
			kind := "memory"
			if durable {
				kind = "durable"
			}
			b.Run(fmt.Sprintf("history=%d/%s", history, kind), func(b *testing.B) {
				closeEpoch := trace.service(b, history, durable)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Two collections empty every sync.Pool. Nothing a close
					// keeps lives in one — the snapshot buffer and the bar's
					// coverage map are the service's own — so B/op does not
					// depend on when the collector last ran; a close that went
					// back to pooled buffers would pay for them here, every time.
					b.StopTimer()
					runtime.GC()
					runtime.GC()
					b.StartTimer()
					closeEpoch()
				}
			})
		}
	}
}

// A durable close allocates for its epoch, not its history: the snapshot is
// appended into a buffer the service keeps, the bar's coverage map is kept
// from one close to the next, and the ledgers are built at their final size.
// On BenchmarkHorizonAdvanceHistory's rig at 20 000 committed requests a warm
// durable close (snapshot due, no fsync) allocated 1.85 MB against 1.84 MB in
// memory; when the snapshot went through json.Marshal's pooled buffer and
// the bar built its map afresh, 11.77 MB against 3.37. The budget is 1.25
// times the in-memory close, measured after the same two collections.
func TestDurableCloseAllocationBudget(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	trace := newHistoryTrace(t)
	perClose := func(durable bool) float64 {
		closeEpoch := trace.service(t, 20000, durable)
		closeEpoch() // kept buffers reach their size
		const runs = 3
		var total uint64
		for i := 0; i < runs; i++ {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			closeEpoch()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / runs
	}
	memory, durable := perClose(false), perClose(true)
	t.Logf("a close on 20 000 committed requests allocates %.0f B in memory, %.0f B durable", memory, durable)
	if durable > 1.25*memory {
		t.Errorf("a durable close allocates %.0f B, over 1.25 × the in-memory close's %.0f B", durable, memory)
	}
}

// historyTrace is BenchmarkHorizonAdvanceHistory's trace: one density
// throughout (20 000 requests a day on storages too large to overflow).
type historyTrace struct {
	r    *testutil.Rig
	reqs workload.Set
}

func newHistoryTrace(tb testing.TB) historyTrace {
	tb.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 50, CapacityGB: 1000,
		WindowHours: 24, RequestsPerUser: 838, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	return historyTrace{r: r, reqs: reqs}
}

// service commits the trace's first history requests, in epochs of 1 000
// with the horizon lagging 15 minutes behind intake, to a service in memory
// or durable with a snapshot due at every close. It returns a function that
// closes the next 100-request epoch on top of that history, the same epoch at
// every call.
func (h historyTrace) service(tb testing.TB, history int, durable bool) func() {
	tb.Helper()
	const lag = 15 * simtime.Minute
	svc := horizon.New(h.r.Model, horizon.Config{})
	if durable {
		// No flush per append while the history is built; the snapshot
		// flushes itself.
		var err error
		svc, err = horizon.Recover(tb.TempDir(), h.r.Model, horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { svc.Close() })
	}
	epoch := func(batch workload.Set) {
		for _, q := range batch {
			if _, err := svc.Submit(q.Start, q); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := svc.Advance(context.Background(), simtime.Max(0, batch[len(batch)-1].Start.Add(-lag))); err != nil {
			tb.Fatal(err)
		}
	}
	for at := 0; at < history; at += 1000 {
		epoch(h.reqs[at : at+1000])
	}
	rewind := svc.Rewind()
	return func() {
		rewind()
		epoch(h.reqs[history : history+100])
	}
}
