package horizon_test

import (
	"context"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// The bar's kept ledger is a fresh build of the held schedule after every
// commit, and after a close that did not commit: one the bar refused, whose
// schedule the ledger took in and gave back, and one whose solve failed
// before the bar ran.
func TestKeptLedgerHoldsTheHeldSchedule(t *testing.T) {
	r, err := testutil.Build(testutil.Params{Storages: 4, UsersPerStorage: 3, RequestsPerUser: 5, Titles: 30,
		CapacityGB: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	svc := horizon.New(r.Model, horizon.Config{})
	held := func(at string) {
		t.Helper()
		if d := svc.KeptLedgerDiff(); d != "" {
			t.Fatalf("%s: the kept ledger differs from a fresh build of the held schedule: %s", at, d)
		}
	}
	const size = 7
	for at := 0; at < len(reqs); at += size {
		batch := reqs[at:min(at+size, len(reqs))]
		for _, q := range batch {
			if _, err := svc.Submit(q.Start, q); err != nil {
				t.Fatal(err)
			}
		}
		to := simtime.Max(svc.Horizon(), batch[len(batch)-1].Start.Add(-simtime.Hour))

		commit, _ := svc.CorruptClose(context.Background(), to, func(s *schedule.Schedule) {
			for _, vid := range s.VideoIDs() {
				if fs := s.File(vid); len(fs.Deliveries) > 0 {
					fs.Deliveries = append(fs.Deliveries, fs.Deliveries[len(fs.Deliveries)-1])
					return
				}
			}
		})
		if commit == nil || !strings.Contains(commit.Error(), "matches no request") {
			t.Fatalf("close %d: the bar said %v of a duplicated delivery", svc.Epoch(), commit)
		}
		if svc.Epoch() > 0 {
			held("after a refused close")
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := svc.Advance(cancelled, to); err == nil {
			t.Fatalf("close %d: a cancelled solve committed", svc.Epoch())
		}
		if svc.Epoch() > 0 {
			held("after a failed solve")
		}

		if _, err := svc.Advance(context.Background(), to); err != nil {
			t.Fatal(err)
		}
		held("after a commit")
	}
}
