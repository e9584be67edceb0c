package horizon_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// testdata/parent-format is a data directory written by the commit before
// the service's state was declared once (see its README): a snapshot taken
// after two epochs, then a wal.log holding nine submits, the third epoch's
// advance and five submits still pending. Recovering it must reproduce the
// committed schedule byte for byte and land on the same sequence — the
// on-disk formats did not move with the refactor.
func TestRecoverParentFormatFixture(t *testing.T) {
	const fixture = "testdata/parent-format"
	dir := t.TempDir()
	for _, name := range []string{wal.SnapshotName, horizon.LogName} {
		blob, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want struct {
		AppliedSeq uint64  `json:"applied_seq"`
		Epoch      int     `json:"epoch"`
		Horizon    int64   `json:"horizon"`
		Pending    int     `json:"pending"`
		Cost       float64 `json:"cost"`
		Accepted   int     `json:"accepted"`
	}
	blob, err := os.ReadFile(filepath.Join(fixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(fixture, "committed.json"))
	if err != nil {
		t.Fatal(err)
	}

	r := rig(t, testutil.Params{
		Storages: 4, UsersPerStorage: 3, Titles: 10, CapacityGB: 2, RequestsPerUser: 3, Seed: 7,
	})
	svc, err := horizon.Recover(dir, r.Model, horizon.Config{SnapshotEvery: 2, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("recover the parent's data directory: %v", err)
	}
	defer svc.Close()

	if st := svc.Recovery(); !st.SnapshotLoaded || st.ReplayedSubmits != 14 || st.ReplayedAdvances != 1 || st.TailTruncated {
		t.Fatalf("recovery took an unexpected path: %+v", st)
	}
	got, err := json.Marshal(svc.Committed())
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(committed) {
		t.Errorf("committed schedule differs from the parent's:\n got %s\nwant %s", got, committed)
	}
	if seq := svc.AppliedSeq(); seq != want.AppliedSeq {
		t.Errorf("AppliedSeq = %d, want %d", seq, want.AppliedSeq)
	}
	p := svc.Plan()
	if p.Epoch != want.Epoch || int64(p.Horizon) != want.Horizon || p.Pending != want.Pending ||
		float64(p.Cost) != want.Cost || len(svc.Accepted()) != want.Accepted {
		t.Errorf("recovered plan epoch=%d horizon=%v pending=%d cost=%v accepted=%d, want %+v",
			p.Epoch, p.Horizon, p.Pending, float64(p.Cost), len(svc.Accepted()), want)
	}
}
