package horizon_test

import (
	"context"
	"fmt"
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
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 50, CapacityGB: 1000,
		WindowHours: 24, RequestsPerUser: 838, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	const lag = 15 * simtime.Minute
	ctx := context.Background()

	for _, history := range []int{2000, 20000} {
		for _, durable := range []bool{false, true} {
			kind := "memory"
			if durable {
				kind = "durable"
			}
			b.Run(fmt.Sprintf("history=%d/%s", history, kind), func(b *testing.B) {
				svc := horizon.New(r.Model, horizon.Config{})
				if durable {
					// No flush per append while the history is built; the
					// snapshot flushes itself.
					var err error
					svc, err = horizon.Recover(b.TempDir(), r.Model, horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever})
					if err != nil {
						b.Fatal(err)
					}
					defer svc.Close()
				}
				epoch := func(batch workload.Set) {
					for _, q := range batch {
						if _, err := svc.Submit(q.Start, q); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := svc.Advance(ctx, simtime.Max(0, batch[len(batch)-1].Start.Add(-lag))); err != nil {
						b.Fatal(err)
					}
				}
				for at := 0; at < history; at += 1000 {
					epoch(reqs[at : at+1000])
				}
				rewind := svc.Rewind()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rewind()
					epoch(reqs[history : history+100])
				}
			})
		}
	}
}
