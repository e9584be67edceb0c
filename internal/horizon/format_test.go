package horizon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// fixtureParams is the rig both fixtures were written on.
var fixtureParams = testutil.Params{
	Storages: 4, UsersPerStorage: 3, Titles: 10, CapacityGB: 2, RequestsPerUser: 3, Seed: 7,
}

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

	r := rig(t, fixtureParams)
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

// testdata/future-format holds what a newer binary could write (see its
// README): a journal record with an unknown field, a record of an unknown op,
// and a snapshot with an unknown field. Every door refuses each, naming the
// field or the op and the seq: Recover, ApplyReplicated for the records, and
// InstallSnapshot for the snapshot. The same inputs without the unknown field
// pass the same doors, so what is refused is the field alone.
func TestFutureFormatIsRefusedByName(t *testing.T) {
	const fixture = "testdata/future-format"
	r := rig(t, fixtureParams)
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	recoverCopy := func(files map[string][]byte) error {
		dir := t.TempDir()
		for file, blob := range files {
			if err := os.WriteFile(filepath.Join(dir, file), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		svc, err := horizon.Recover(dir, r.Model, cfg)
		if err == nil {
			svc.Close()
		}
		return err
	}
	refused := func(door string, err error, want ...string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s admitted it", door)
			return
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s refused it as %q, which does not say %q", door, err, w)
			}
		}
	}

	for _, c := range []struct {
		name string
		want []string
	}{
		{"record-field", []string{"seq 4", `unknown field "id"`}},
		{"record-op", []string{"seq 4", `unknown op "batch"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(fixture, c.name, horizon.LogName)
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := wal.ReadLogAfter(path, 0)
			if err != nil || len(recs) != 4 {
				t.Fatalf("the fixture's journal holds %d records (%v), want 4", len(recs), err)
			}
			refused("Recover", recoverCopy(map[string][]byte{horizon.LogName: log}), append([]string{"replay record"}, c.want...)...)

			svc := horizon.New(r.Model, cfg)
			for _, rec := range recs[:3] {
				if _, err := svc.ApplyReplicated(context.Background(), rec); err != nil {
					t.Fatalf("replicated record seq %d: %v", rec.Seq, err)
				}
			}
			_, err = svc.ApplyReplicated(context.Background(), recs[3])
			refused("ApplyReplicated", err, append([]string{"replicated record"}, c.want...)...)
			if svc.AppliedSeq() != 3 || svc.Pending() != 3 {
				t.Errorf("the refused record moved the follower: applied seq %d, %d pending", svc.AppliedSeq(), svc.Pending())
			}

			if c.name == "record-field" {
				bare := recs[3]
				bare.Payload = bytes.Replace(bare.Payload, []byte(`,"id":"r-4"`), nil, 1)
				if _, err := svc.ApplyReplicated(context.Background(), bare); err != nil {
					t.Errorf("the record without its unknown field: %v", err)
				}
			}
		})
	}

	t.Run("snapshot-field", func(t *testing.T) {
		seq, blob, ok, err := wal.ReadSnapshot(filepath.Join(fixture, "snapshot-field"))
		if err != nil || !ok {
			t.Fatalf("read the fixture's snapshot: %v (found %v)", err, ok)
		}
		snapshot, err := os.ReadFile(filepath.Join(fixture, "snapshot-field", wal.SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"snapshot seq 7", `unknown field "digest"`}
		refused("Recover", recoverCopy(map[string][]byte{wal.SnapshotName: snapshot}), want...)
		refused("InstallSnapshot", horizon.New(r.Model, cfg).InstallSnapshot(seq, blob), want...)

		bare := bytes.Replace(blob, []byte(`,"digest":"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"`), nil, 1)
		if len(bare) == len(blob) {
			t.Fatal("the fixture's snapshot carries no digest")
		}
		svc := horizon.New(r.Model, cfg)
		if err := svc.InstallSnapshot(seq, bare); err != nil {
			t.Errorf("the snapshot without its unknown field: %v", err)
		}
		if svc.Epoch() != 1 || svc.AppliedSeq() != seq {
			t.Errorf("installed epoch %d at seq %d, want epoch 1 at seq %d", svc.Epoch(), svc.AppliedSeq(), seq)
		}
	})
}
