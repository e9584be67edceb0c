package horizon_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/wal"
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

// A close prices Ψ on from the folds of the frozen prefix its split extends,
// and what it commits is ScheduleCost of the committed schedule, bit for bit,
// at every close of a rolling run: a clean one, which never enters SORP, one
// that resolves overflows, the closes of a service recovered from its data
// directory at a record boundary (a replayed close first, then live ones),
// those of a service that installed the primary's snapshot and took over,
// and one after a close that solved further on and did not commit.
func TestKeptCostIsScheduleCost(t *testing.T) {
	r, err := testutil.Build(testutil.Params{Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 20, RequestsPerUser: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	const perEpoch, lag = 10, simtime.Hour
	cfg := horizon.Config{SnapshotEvery: 3, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { svc.Close() }()

	var clean, overflowing, closes int
	var after string // how the service now closing came to hold its state
	seen := map[string]int{}
	same := func(what string, reported units.Money) {
		t.Helper()
		p := svc.Plan()
		want := math.Float64bits(float64(r.Model.ScheduleCost(p.Schedule)))
		if got := math.Float64bits(float64(p.Cost)); got != want || math.Float64bits(float64(reported)) != want {
			t.Errorf("%s: committed cost %v (reported %v), ScheduleCost %v",
				what, float64(p.Cost), float64(reported), math.Float64frombits(want))
		}
	}
	for i, rq := range reqs {
		if _, err := svc.Submit(rq.Start, rq); err != nil {
			t.Fatal(err)
		}
		switch {
		case after == "" && closes == 4 && i%perEpoch == 2: // mid-epoch, the journal past the last snapshot
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if svc, err = horizon.Recover(dir, r.Model, cfg); err != nil {
				t.Fatal(err)
			}
			if st := svc.Recovery(); st.ReplayedAdvances == 0 || st.ReplayedSubmits == 0 {
				t.Fatalf("fixture bug: recovery replayed %+v; the close after it must follow a replayed one", st)
			}
			same("the replayed close", svc.Cost())
			after = "Recover"
		case after == "Recover" && closes == 7 && i%perEpoch == 0:
			batch, err := svc.TailAfter(0, nil, 0)
			if err != nil || len(batch.Snapshot) == 0 {
				t.Fatalf("fixture bug: a new follower is shipped no snapshot (%v)", err)
			}
			next := horizon.New(r.Model, horizon.Config{})
			if err := next.InstallSnapshot(batch.SnapshotSeq, batch.Snapshot); err != nil {
				t.Fatal(err)
			}
			svc.Close()
			svc, after = next, "InstallSnapshot"
		}
		to := rq.Start.Add(-lag)
		if (i+1)%perEpoch != 0 || to < svc.Horizon() {
			continue
		}
		if closes == 2 {
			// A close solved further on that does not commit leaves folds of
			// a schedule the service never holds; the next close must not
			// price from them.
			commit, _ := svc.CorruptClose(context.Background(), to.Add(2*simtime.Hour), func(*schedule.Schedule) {})
			if commit != nil {
				t.Fatalf("fixture bug: the uncorrupted close was refused: %v", commit)
			}
		}
		res, err := svc.Advance(context.Background(), to)
		if err != nil {
			t.Fatal(err)
		}
		closes++
		seen[after]++
		if res.Overflows == 0 {
			clean++
		} else {
			overflowing++
		}
		same(fmt.Sprintf("close %d (after %q, %d overflows)", closes, after, res.Overflows), res.Cost)
	}
	if clean == 0 || overflowing == 0 || seen["Recover"] == 0 || seen["InstallSnapshot"] == 0 {
		t.Fatalf("fixture bug: %d clean and %d overflowing closes, %v by how the state was reached; the run must have each",
			clean, overflowing, seen)
	}
}
