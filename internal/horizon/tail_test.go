package horizon_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// A standby's poll reads only the records it ships, by the offsets the
// journal keeps: a poll for the last record allocates what it does on a
// journal of 10 records on one of 20 000. A poll that read the whole log back
// and decoded it allocated 3.0 KB and 5.5 MB there.
func TestTailAfterCostsWhatItShips(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := rig(t, durableParams())
	perPoll := func(journaled int) float64 {
		svc, err := horizon.Recover(t.TempDir(), r.Model, horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		for i := 0; i < journaled; i++ {
			if _, err := svc.Submit(0, r.Requests[i%len(r.Requests)]); err != nil {
				t.Fatal(err)
			}
		}
		last := svc.AppliedSeq()
		prev, err := svc.TailAfter(last-2, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		crc := prev.Records[0].CRC // the follower's record at last-1
		poll := func() {
			b, err := svc.TailAfter(last-1, &crc, 0)
			if err != nil || len(b.Records) != 1 || b.Records[0].Seq != last {
				t.Fatalf("a poll for the last record: %+v, %v", b, err)
			}
		}
		poll()
		const runs = 20
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			poll()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	short, long := perPoll(10), perPoll(20000)
	t.Logf("a poll for the last record allocates %.0f B on a journal of 10 records, %.0f B on one of 20 000", short, long)
	if long > 1.25*short {
		t.Errorf("a poll on a journal of 20 000 records allocates %.0f B, over 1.25 × the %.0f B it does on one of 10", long, short)
	}
}

// A compaction that kept the records journaled while its snapshot was written
// leaves the journal's offsets right: a poll from before the seq the snapshot
// covers ships the live state, a poll from a kept record ships exactly the
// records after it with their checksums, and a poll whose checksum disagrees
// with a kept record is refused as diverged.
func TestTailAfterAcrossAKeptCompaction(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	primary, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ops := script(r, 3)
	adv := advanceIndices(ops)
	for _, op := range ops[:adv[0]] {
		applyOp(t, primary, op)
	}
	finish := parkedClose(t, primary, ops[adv[0]].to)
	covered := primary.AppliedSeq()
	for _, op := range ops[adv[0]+1 : adv[1]] {
		applyOp(t, primary, op)
	}
	finish()
	last := primary.AppliedSeq()
	kept, _, err := wal.ReadLogAfter(filepath.Join(dir, horizon.LogName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if last-covered < 3 || uint64(len(kept)) != last-covered || kept[0].Seq != covered+1 {
		t.Fatalf("fixture bug: the snapshot covers seq %d, the journal holds %d records up to seq %d", covered, len(kept), last)
	}

	for _, after := range []uint64{0, covered - 1} {
		b, err := primary.TailAfter(after, nil, 0)
		if err != nil || b.Snapshot == nil || b.SnapshotSeq != last || len(b.Records) != 0 {
			t.Fatalf("a poll from seq %d, before the snapshot's %d: snapshot at seq %d (%d bytes), %d records, %v; want the state at seq %d",
				after, covered, b.SnapshotSeq, len(b.Snapshot), len(b.Records), err, last)
		}
	}
	follower := horizon.New(r.Model, horizon.Config{})
	if records, snapshots := shipAll(t, primary, follower); records != 0 || snapshots != 1 {
		t.Fatalf("a fresh follower took %d records and %d snapshots, want the one snapshot", records, snapshots)
	}
	if fingerprint(t, follower) != fingerprint(t, primary) {
		t.Fatal("the shipped state differs from the primary's")
	}

	for after := covered; after < last; after++ {
		crc := ^uint32(0) // the record at covered was compacted away, so no checksum is compared
		if after > covered {
			crc = wal.Checksum(after, kept[after-covered-1].Payload)
		}
		b, err := primary.TailAfter(after, &crc, 0)
		if err != nil || b.Snapshot != nil || len(b.Records) != int(last-after) {
			t.Fatalf("a poll from seq %d: %d records, snapshot %v, %v; want the %d after it", after, len(b.Records), b.Snapshot != nil, err, last-after)
		}
		for i, rec := range b.Records {
			want := kept[int(after-covered)+i]
			if rec.Seq != want.Seq || !bytes.Equal(rec.Payload, want.Payload) || rec.CRC != wal.Checksum(want.Seq, want.Payload) {
				t.Fatalf("a poll from seq %d shipped record seq %d crc %08x %q, the journal holds seq %d %q",
					after, rec.Seq, rec.CRC, rec.Payload, want.Seq, want.Payload)
			}
		}
		if b, err := primary.TailAfter(after, &crc, 1); err != nil || len(b.Records) != 1 || b.Records[0].Seq != after+1 {
			t.Fatalf("a poll from seq %d for one record: %+v, %v", after, b, err)
		}
		if after == covered {
			continue
		}
		bad := crc + 1
		if _, err := primary.TailAfter(after, &bad, 0); !errors.Is(err, horizon.ErrDiverged) {
			t.Fatalf("a poll from kept seq %d with another checksum: %v, want ErrDiverged", after, err)
		}
	}
}
