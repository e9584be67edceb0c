package horizon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// durableParams is deliberately tiny: the crash property test below
// recovers and replays the full workload once per journal record.
func durableParams() testutil.Params {
	return testutil.Params{
		Storages:        4,
		UsersPerStorage: 3,
		Titles:          10,
		CapacityGB:      2,
		RequestsPerUser: 2,
		Seed:            7,
	}
}

// walOp is one scripted operation of the crash workload.
type walTestOp struct {
	submit bool
	at     simtime.Time
	req    workload.Request
	to     simtime.Time
}

func applyOp(t testing.TB, svc *horizon.Service, op walTestOp) {
	t.Helper()
	var err error
	if op.submit {
		_, err = svc.Submit(op.at, op.req)
	} else {
		_, err = svc.Advance(context.Background(), op.to)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", op, err)
	}
}

// script builds the seeded workload: submissions in chronological order,
// with an Advance closing each of the epochs.
func script(r *testutil.Rig, epochs int) []walTestOp {
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	window := simtime.Duration(r.Params.WindowHours) * simtime.Hour
	step := simtime.Duration(int64(window) / int64(epochs))

	var ops []walTestOp
	next := 0
	for k := 1; k <= epochs; k++ {
		h := simtime.Time(int64(step) * int64(k))
		for next < len(reqs) && reqs[next].Start < h.Add(step) {
			ops = append(ops, walTestOp{submit: true, at: reqs[next].Start, req: reqs[next]})
			next++
		}
		ops = append(ops, walTestOp{to: h})
	}
	return ops
}

// fingerprint captures everything a recovery must reproduce, as JSON so
// the comparison is byte-exact.
func fingerprint(t *testing.T, svc *horizon.Service) string {
	t.Helper()
	blob, err := json.Marshal(map[string]any{
		"committed": svc.Committed(),
		"epoch":     svc.Epoch(),
		"horizon":   svc.Horizon(),
		"cost":      svc.Cost(),
		"pending":   svc.Pending(),
		"accepted":  svc.Accepted(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestRecoverFreshDir(t *testing.T) {
	r := rig(t, durableParams())
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, horizon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if st := svc.Recovery(); st.Recovered || st.SnapshotLoaded || st.TailTruncated {
		t.Fatalf("fresh dir reports recovery: %+v", st)
	}
	if !svc.Durable() {
		t.Fatal("recovered service not durable")
	}
	if _, err := svc.Submit(0, r.Requests[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Advance(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// A journal record carrying a field this version does not declare is refused
// by both doors a record enters by, recovery and a follower's apply, with an
// error that names the field and the record's seq. Applying it as though the
// field were not there would serve a state the writer did not mean.
func TestRecordWithUnknownFieldRefused(t *testing.T) {
	r := rig(t, durableParams())
	q := r.Requests[0]
	good := fmt.Sprintf(`{"op":"submit","at":%d,"user":%d,"video":%d,"start":%d}`, q.Start, q.User, q.Video, q.Start)
	bad := []byte(good[:len(good)-1] + `,"id":"k"}`)
	named := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), `"id"`) && strings.Contains(err.Error(), "seq 2")
	}

	dir := t.TempDir()
	log, _, _, err := wal.Open(filepath.Join(dir, horizon.LogName), wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{[]byte(good), bad} {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if svc, err := horizon.Recover(dir, r.Model, horizon.Config{}); !named(err) {
		if err == nil {
			svc.Close()
		}
		t.Fatalf("recovery of %s: %v; want a refusal naming \"id\" and seq 2", bad, err)
	}

	follower := horizon.New(r.Model, horizon.Config{})
	ctx := context.Background()
	if _, err := follower.ApplyReplicated(ctx, wal.Record{Seq: 1, Payload: []byte(good)}); err != nil {
		t.Fatal(err)
	}
	ok, err := follower.ApplyReplicated(ctx, wal.Record{Seq: 2, Payload: bad})
	if ok || !named(err) {
		t.Fatalf("follower applied %s: ok %v, %v; want a refusal naming \"id\" and seq 2", bad, ok, err)
	}
	if seq, pending := follower.AppliedSeq(), follower.Pending(); seq != 1 || pending != 1 {
		t.Fatalf("refused record moved the follower: applied seq %d, %d pending; want 1 and 1", seq, pending)
	}
}

// A closed durable service must reopen with byte-identical state, whether
// the state comes from the journal alone or from snapshot + tail replay.
func TestRecoverRestoresState(t *testing.T) {
	for _, snapEvery := range []int{-1, 1} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapEvery), func(t *testing.T) {
			r := rig(t, durableParams())
			cfg := horizon.Config{SnapshotEvery: snapEvery, Fsync: wal.FsyncNever}
			dir := t.TempDir()

			svc, err := horizon.Recover(dir, r.Model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := script(r, 3)
			for _, op := range ops[:len(ops)-1] { // leave the last advance's intake pending
				applyOp(t, svc, op)
			}
			want := fingerprint(t, svc)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := horizon.Recover(dir, r.Model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := fingerprint(t, re); got != want {
				t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
			}
			st := re.Recovery()
			if !st.Recovered {
				t.Fatalf("recovery stats claim nothing recovered: %+v", st)
			}
			if snapEvery == 1 && !st.SnapshotLoaded {
				t.Fatalf("snapshotting enabled but recovery skipped it: %+v", st)
			}
			if snapEvery == -1 && st.SnapshotLoaded {
				t.Fatalf("snapshots disabled but one was loaded: %+v", st)
			}
		})
	}
}

// The crash/recover property: kill the service at every journal record
// boundary (SIGKILL-equivalent — only the bytes on disk survive), recover
// from the prefix, re-drive the remaining operations, and require the
// final committed state to be byte-identical to the uninterrupted run.
// Cuts inside a record additionally exercise torn-tail repair: the torn
// operation was never acknowledged, so the client-visible contract is
// that re-submitting it converges to the same state.
func TestCrashRecoverEveryRecordBoundary(t *testing.T) {
	r := rig(t, durableParams())
	// Snapshots off so the journal alone carries the history and every
	// prefix is a legal crash image; the snapshot path is crash-tested
	// separately below.
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}

	refDir := t.TempDir()
	svc, err := horizon.Recover(refDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := script(r, 3)
	logPath := filepath.Join(refDir, horizon.LogName)
	boundaries := make([]int64, 0, len(ops)+1)
	stat := func() int64 {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	boundaries = append(boundaries, stat())
	for _, op := range ops {
		applyOp(t, svc, op)
		boundaries = append(boundaries, stat())
	}
	want := fingerprint(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	recoverAt := func(t *testing.T, img []byte, resume int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, horizon.LogName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := horizon.Recover(dir, r.Model, cfg)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer re.Close()
		for _, op := range ops[resume:] {
			applyOp(t, re, op)
		}
		if got := fingerprint(t, re); got != want {
			t.Errorf("resumed state differs from uninterrupted run:\n got %.200s...\nwant %.200s...", got, want)
		}
	}

	for i := 0; i <= len(ops); i++ {
		t.Run(fmt.Sprintf("boundary=%d", i), func(t *testing.T) {
			recoverAt(t, full[:boundaries[i]], i)
		})
	}
	// Torn cuts: a few bytes past a boundary, mid-record. The in-flight
	// operation is lost (never acked) and re-driven.
	for i := 0; i < len(ops); i++ {
		if boundaries[i]+3 >= boundaries[i+1] {
			continue
		}
		t.Run(fmt.Sprintf("torn=%d", i), func(t *testing.T) {
			recoverAt(t, full[:boundaries[i]+3], i)
		})
	}
}

// The same crash property across a snapshot: kill after the snapshot was
// published but before (and after) the journal reset, and with tail
// records following the snapshot.
func TestCrashRecoverAroundSnapshot(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}

	refDir := t.TempDir()
	svc, err := horizon.Recover(refDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := script(r, 3)
	// Stop right after the second advance: a snapshot was just taken.
	cut := 0
	advances := 0
	for i, op := range ops {
		if !op.submit {
			advances++
			if advances == 2 {
				cut = i + 1
				break
			}
		}
	}
	for _, op := range ops[:cut] {
		applyOp(t, svc, op)
	}
	mid := fingerprint(t, svc)
	snap, err := os.ReadFile(filepath.Join(refDir, wal.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[cut:] {
		applyOp(t, svc, op)
	}
	want := fingerprint(t, svc)
	svc.Close()
	tailLog, err := os.ReadFile(filepath.Join(refDir, horizon.LogName))
	if err != nil {
		t.Fatal(err)
	}

	// Crash image A: snapshot present, journal already reset (the state
	// as of the snapshot) — recover and re-drive the remainder.
	t.Run("after-reset", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.SnapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := horizon.Recover(dir, r.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := fingerprint(t, re); got != mid {
			t.Fatalf("snapshot-only recovery diverged at the cut point")
		}
		for _, op := range ops[cut:] {
			applyOp(t, re, op)
		}
		if got := fingerprint(t, re); got != want {
			t.Fatalf("post-snapshot resume diverged from uninterrupted run")
		}
	})

	// Crash image B: final snapshot plus the tail journal (crash at the
	// end of the run, before any further compaction).
	t.Run("snapshot-plus-tail", func(t *testing.T) {
		finalSnap, err := os.ReadFile(filepath.Join(refDir, wal.SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.SnapshotName), finalSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, horizon.LogName), tailLog, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := horizon.Recover(dir, r.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := fingerprint(t, re); got != want {
			t.Fatalf("snapshot+tail recovery diverged from uninterrupted run")
		}
	})
}

// Snapshot compaction must actually shrink the journal: after an epoch
// that snapshots, the log holds no pre-snapshot records.
func TestSnapshotCompactsJournal(t *testing.T) {
	r := rig(t, durableParams())
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 6; i++ {
		if _, err := svc.Submit(0, r.Requests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Advance(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, horizon.LogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 64 { // magic only; any journaled op would exceed this
		t.Fatalf("journal not compacted after snapshot: %d bytes", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SnapshotName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
}

// An uninterrupted durable run must be byte-identical to the in-memory
// service fed the same operations: journaling is an observer, never a
// participant, of the scheduling pipeline.
func TestDurableMatchesInMemory(t *testing.T) {
	r := rig(t, durableParams())
	ops := script(r, 3)

	mem := horizon.New(r.Model, horizon.Config{})
	for _, op := range ops {
		applyOp(t, mem, op)
	}
	dur, err := horizon.Recover(t.TempDir(), r.Model, horizon.Config{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for _, op := range ops {
		applyOp(t, dur, op)
	}
	if got, want := fingerprint(t, dur), fingerprint(t, mem); got != want {
		t.Fatalf("durable run diverged from in-memory run")
	}
}

// Recovery must accept what the live path committed. With advances that
// lag the intake, a copy loaded before the horizon whose readers all lie
// beyond it freezes at zero span with no services; when overflow
// resolution then re-plans those readers elsewhere the copy stays behind
// (frozen records are never pruned), costing nothing. The audit Recover
// applies used to refuse it ("residency N of video V serves nobody"), so
// every durable shard that had resolved overflows failed to restart.
func TestRecoverAfterOverflowResolvingEpochs(t *testing.T) {
	for _, snapEvery := range []int{-1, 1} { // journal replay alone, snapshot + tail
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapEvery), func(t *testing.T) {
			recoverAfterOverflowResolvingEpochs(t, snapEvery)
		})
	}
}

func recoverAfterOverflowResolvingEpochs(t *testing.T, snapEvery int) {
	r := rig(t, testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 2, RequestsPerUser: 5, Seed: 1,
	})
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	const perEpoch, lag = 10, simtime.Hour

	cfg := horizon.Config{SnapshotEvery: snapEvery, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victims, readerless := 0, 0
	for i, rq := range reqs {
		if _, err := svc.Submit(rq.Start, rq); err != nil {
			t.Fatal(err)
		}
		to := rq.Start.Add(-lag)
		if (i+1)%perEpoch != 0 || to < svc.Horizon() {
			continue
		}
		res, err := svc.Advance(context.Background(), to)
		if err != nil {
			t.Fatal(err)
		}
		victims += len(res.Victims)
	}
	for _, fs := range svc.Committed().Files {
		for _, readers := range fs.Readers() {
			if len(readers) == 0 {
				readerless++
			}
		}
	}
	if victims == 0 || readerless == 0 {
		t.Fatalf("fixture bug: %d victims, %d reader-less frozen copies; the run must produce both", victims, readerless)
	}
	want := fingerprint(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatalf("recovery refuses state the live path committed: %v", err)
	}
	defer re.Close()
	if got := fingerprint(t, re); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}
