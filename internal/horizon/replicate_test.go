package horizon_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

// shipAll pulls primary's tail into follower until caught up, returning
// the number of records and snapshots applied.
func shipAll(t *testing.T, primary, follower *horizon.Service) (records, snapshots int) {
	t.Helper()
	ctx := context.Background()
	for {
		after, crc, ok := follower.ResumePoint()
		var check *uint32
		if ok {
			check = &crc
		}
		tail, err := primary.TailAfter(after, check, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tail.Snapshot != nil {
			if err := follower.InstallSnapshot(tail.SnapshotSeq, tail.Snapshot); err != nil {
				t.Fatal(err)
			}
			snapshots++
			continue
		}
		if len(tail.Records) == 0 {
			return records, snapshots
		}
		for _, rec := range tail.Records {
			ok, err := follower.ApplyReplicated(ctx, wal.Record{Seq: rec.Seq, Payload: rec.Payload})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				records++
			}
		}
	}
}

func TestTailAfterRequiresDurability(t *testing.T) {
	r := rig(t, durableParams())
	svc := horizon.New(r.Model, horizon.Config{})
	if _, err := svc.TailAfter(0, nil, 0); !errors.Is(err, horizon.ErrNotDurable) {
		t.Fatalf("in-memory TailAfter: %v, want ErrNotDurable", err)
	}
}

// A poll carries the checksum of the follower's record at its resume point,
// and the primary refuses a follower whose history is not its own there —
// at its last seq or behind it — or whose seq is past its last; it skips the
// comparison when the poll carries no checksum.
func TestTailAfterRefusesDivergedFollower(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for _, op := range script(r, 3) {
		applyOp(t, primary, op)
	}
	all, err := primary.TailAfter(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := primary.AppliedSeq()
	if last < 3 {
		t.Fatalf("fixture bug: %d records", last)
	}
	crcAt := func(seq uint64) uint32 { return all.Records[seq-1].CRC }
	bad := func(seq uint64) *uint32 { c := crcAt(seq) + 1; return &c }
	for _, after := range []uint64{1, last - 1, last} {
		good := crcAt(after)
		tail, err := primary.TailAfter(after, &good, 0)
		if err != nil || uint64(len(tail.Records)) != last-after {
			t.Fatalf("agreeing follower at seq %d: %d records, %v; want %d", after, len(tail.Records), err, last-after)
		}
		if _, err := primary.TailAfter(after, nil, 0); err != nil {
			t.Fatalf("follower at seq %d without a checksum: %v", after, err)
		}
		_, err = primary.TailAfter(after, bad(after), 0)
		if !errors.Is(err, horizon.ErrDiverged) || !strings.Contains(err.Error(), fmt.Sprintf("seq %d ", after)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("last seq %d", last)) {
			t.Fatalf("diverged follower at seq %d: %v, want ErrDiverged naming seqs %d and %d", after, err, after, last)
		}
	}
	if _, err := primary.TailAfter(last+1, nil, 0); !errors.Is(err, horizon.ErrDiverged) {
		t.Fatalf("follower past the primary: %v, want ErrDiverged", err)
	}
}

// A follower fed record-by-record through ApplyReplicated converges to
// the primary's exact state, assigning identical sequence numbers to its
// own journal.
func TestReplicatedApplyConverges(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for _, op := range script(r, 3) {
		applyOp(t, primary, op)
	}
	recs, snaps := shipAll(t, primary, follower)
	if snaps != 0 {
		t.Fatalf("snapshot shipped with compaction disabled (%d)", snaps)
	}
	if recs == 0 {
		t.Fatal("no records shipped")
	}
	if got, want := follower.AppliedSeq(), primary.AppliedSeq(); got != want {
		t.Fatalf("follower applied seq %d, primary %d", got, want)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatalf("replicated state diverged:\n got %.200s...\nwant %.200s...", got, want)
	}
}

// Duplicated deliveries are skipped by sequence; gaps are refused.
func TestApplyReplicatedIdempotencyAndGaps(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	ops := script(r, 3)
	for _, op := range ops {
		applyOp(t, primary, op)
	}
	tail, err := primary.TailAfter(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A gap — record 2 before record 1 — must be refused.
	if _, err := follower.ApplyReplicated(ctx, wal.Record{Seq: tail.Records[1].Seq, Payload: tail.Records[1].Payload}); err == nil {
		t.Fatal("gap accepted")
	} else if !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap refusal does not name the gap: %v", err)
	}

	// Every record applied twice: the duplicate must report not-applied
	// and leave the state identical.
	for _, shipped := range tail.Records {
		rec := wal.Record{Seq: shipped.Seq, Payload: shipped.Payload}
		ok, err := follower.ApplyReplicated(ctx, rec)
		if err != nil || !ok {
			t.Fatalf("first apply of seq %d: ok=%v err=%v", rec.Seq, ok, err)
		}
		before := fingerprint(t, follower)
		ok, err = follower.ApplyReplicated(ctx, rec)
		if err != nil || ok {
			t.Fatalf("duplicate apply of seq %d: ok=%v err=%v, want skipped", rec.Seq, ok, err)
		}
		if after := fingerprint(t, follower); after != before {
			t.Fatalf("duplicate apply of seq %d mutated state", rec.Seq)
		}
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("state diverged after duplicated deliveries")
	}
}

// When compaction has folded the requested records into a snapshot, the
// tail arrives as a full-state snapshot instead — the bytes the primary's own
// snapshot file holds at the same sequence, from the same writer — and
// installing it brings a fresh follower to the primary's exact state.
func TestSnapshotShippingAfterCompaction(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	primaryDir := t.TempDir()
	primary, err := horizon.Recover(primaryDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	ops := script(r, 3)
	for _, op := range ops {
		applyOp(t, primary, op)
	}
	tail, err := primary.TailAfter(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Snapshot == nil {
		t.Fatal("compacted journal still served records from seq 0")
	}
	if tail.SnapshotSeq != primary.AppliedSeq() {
		t.Fatalf("snapshot at seq %d, primary at %d", tail.SnapshotSeq, primary.AppliedSeq())
	}
	onDiskSeq, onDisk, ok, err := wal.ReadSnapshot(primaryDir)
	if err != nil || !ok || onDiskSeq != tail.SnapshotSeq {
		t.Fatalf("the primary's snapshot file: seq %d, present %v, err %v; want seq %d", onDiskSeq, ok, err, tail.SnapshotSeq)
	}
	if !bytes.Equal(tail.Snapshot, onDisk) {
		t.Fatalf("shipped snapshot (%d bytes) differs from the on-disk payload at the same seq (%d bytes)", len(tail.Snapshot), len(onDisk))
	}

	followerDir := t.TempDir()
	follower, err := horizon.Recover(followerDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, snaps := shipAll(t, primary, follower); snaps != 1 {
		t.Fatalf("%d snapshots installed, want 1", snaps)
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("snapshot-installed state diverged from primary")
	}

	// The install is durable: a restart recovers the same state and seq.
	want := fingerprint(t, follower)
	seq := follower.AppliedSeq()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := horizon.Recover(followerDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.AppliedSeq() != seq {
		t.Fatalf("restart lost applied seq: %d, want %d", re.AppliedSeq(), seq)
	}
	if got := fingerprint(t, re); got != want {
		t.Fatal("restart after snapshot install diverged")
	}
}

// A snapshot that does not advance the applied sequence, that does not
// decode, or that decodes into a state the door refuses must be rejected with
// an error — never a panic: the shipper installs snapshots from a goroutine
// of its own — without touching live state, and the follower must go on
// applying the primary's next good batch.
func TestInstallSnapshotRejections(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
	primary, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ops := script(r, 3)
	cut := len(ops) / 2
	for _, op := range ops[:cut] {
		applyOp(t, primary, op)
	}

	follower, err := horizon.Recover(t.TempDir(), r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	shipAll(t, primary, follower)
	before := fingerprint(t, follower)
	next := follower.AppliedSeq() + 1

	// Stale: the follower is already past seq 1.
	if err := follower.InstallSnapshot(1, []byte(`{}`)); err == nil {
		t.Fatal("stale snapshot accepted")
	}
	// Undecodable state.
	if err := follower.InstallSnapshot(next, []byte(`{"`)); err == nil {
		t.Fatal("undecodable snapshot accepted")
	}
	for _, tc := range inconsistentSnapshots(t, goodSnapshot(t, r)) {
		err := follower.InstallSnapshot(next, tc.blob)
		if err == nil {
			t.Fatalf("%s: snapshot accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal does not name %q: %v", tc.name, tc.want, err)
		}
	}
	if got := fingerprint(t, follower); got != before {
		t.Fatal("rejected snapshot mutated live state")
	}
	if follower.AppliedSeq() != next-1 {
		t.Fatalf("rejected snapshots moved the applied sequence to %d", follower.AppliedSeq())
	}

	for _, op := range ops[cut:] {
		applyOp(t, primary, op)
	}
	if recs, _ := shipAll(t, primary, follower); recs == 0 {
		t.Fatal("fixture bug: nothing left to ship after the rejections")
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("follower diverged after rejecting bad snapshots")
	}
}

// FuzzApplyReplicated feeds arbitrary payloads to a follower's
// ApplyReplicated at the next sequence, on an in-memory follower that has
// installed a primary's snapshot (one epoch committed, the next one's
// intake pending). The applier must answer, never panic. A record it
// refuses must leave the applied sequence and the whole state as they were;
// a record it applies must advance the sequence by one and leave a state
// that passes the commit predicate a promotion applies (VerifyCommitted).
func FuzzApplyReplicated(f *testing.F) {
	r, err := testutil.Build(durableParams())
	if err != nil {
		f.Fatal(err)
	}
	snap := goodSnapshot(f, r)
	primary, err := horizon.Recover(f.TempDir(), r.Model, horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for _, op := range script(r, 3) {
		applyOp(f, primary, op)
	}
	tail, err := primary.TailAfter(0, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		f.Fatal(err)
	}
	for _, rec := range tail.Records {
		f.Add(rec.Payload)
	}
	for _, p := range []string{
		`{"op":"advance","to":-1}`,
		`{"op":"advance","to":9223372036854775807}`,
		`{"op":"submit","at":0,"user":-1,"video":0,"start":0}`,
		`{"op":"submit","at":0,"user":0,"video":9999,"start":0}`,
		`{"op":"submit","at":-5,"user":0,"video":0,"start":-5}`,
		`{"op":"submit","at":0,"user":0,"video":0,"start":0,"id":"k"}`,
		`{"op":"rewind"}`, `{}`, `null`, `[`, ``,
	} {
		f.Add([]byte(p))
	}
	const installed = 1
	f.Fuzz(func(t *testing.T, payload []byte) {
		svc := horizon.New(r.Model, horizon.Config{})
		if err := svc.InstallSnapshot(installed, snap); err != nil {
			t.Fatal(err)
		}
		before := fingerprint(t, svc)
		ok, err := svc.ApplyReplicated(context.Background(), wal.Record{Seq: installed + 1, Payload: payload})
		if err != nil {
			if ok {
				t.Fatalf("payload %q refused (%v) and reported applied", payload, err)
			}
			if seq := svc.AppliedSeq(); seq != installed {
				t.Fatalf("payload %q refused (%v), applied seq moved to %d", payload, err, seq)
			}
			if after := fingerprint(t, svc); after != before {
				t.Fatalf("payload %q refused (%v), state changed:\nbefore %.300s\nafter  %.300s", payload, err, before, after)
			}
			return
		}
		if !ok {
			t.Fatalf("payload %q at the next seq skipped as a duplicate", payload)
		}
		if seq := svc.AppliedSeq(); seq != installed+1 {
			t.Fatalf("payload %q applied, applied seq %d, want %d", payload, seq, installed+1)
		}
		if err := svc.VerifyCommitted(); err != nil {
			t.Fatalf("payload %q applied into a state promotion would refuse: %v", payload, err)
		}
	})
}
