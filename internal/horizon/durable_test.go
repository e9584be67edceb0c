package horizon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

// advanceIndices returns the positions of a script's advances.
func advanceIndices(ops []walTestOp) []int {
	var adv []int
	for i, op := range ops {
		if !op.submit {
			adv = append(adv, i)
		}
	}
	return adv
}

// parkedClose starts the close to the given horizon with its snapshot writer
// parked (ParkSnapshot), and returns once the writer waits: the close is
// committed and the lock released. finish lets the writer go on and waits for
// the close to return.
func parkedClose(t *testing.T, svc *horizon.Service, to simtime.Time) (finish func()) {
	t.Helper()
	parked, release := svc.ParkSnapshot()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Advance(context.Background(), to)
		done <- err
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("the close to %v returned (%v) without writing a snapshot", to, err)
	}
	return func() {
		t.Helper()
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// returnsWhileParked fails the test unless call returns, without an error,
// while a snapshot writer is parked.
func returnsWhileParked(t *testing.T, what string, call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s while the snapshot is written: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waits for the snapshot to be written", what)
	}
}

// planBytes is the /v1/plan body's encoding of the service's plan.
func planBytes(t *testing.T, svc *horizon.Service) []byte {
	t.Helper()
	b, err := json.Marshal(svc.Plan())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A close holds the intake lock for its epoch, not its history: the snapshot
// it makes due is written after the lock is released. While the writer is
// parked, submits, plan reads and polls return; once it goes on, the snapshot
// covers the seq the close captured, the journal holds exactly the records
// journaled meanwhile, and a recovery serves the same plan, byte for byte.
func TestSubmitsProceedWhileTheSnapshotIsWritten(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := script(r, 3)
	adv := advanceIndices(ops)
	for _, op := range ops[:adv[0]] {
		applyOp(t, svc, op)
	}
	finish := parkedClose(t, svc, ops[adv[0]].to)
	captured := svc.AppliedSeq()
	meanwhile := ops[adv[0]+1 : adv[1]]
	for _, op := range meanwhile {
		returnsWhileParked(t, "a submit", func() error {
			_, err := svc.Submit(op.at, op.req)
			return err
		})
	}
	returnsWhileParked(t, "a plan read", func() error {
		if p := svc.Plan(); p.Epoch != 1 || p.Pending != len(meanwhile) {
			return fmt.Errorf("epoch %d with %d pending, want 1 with %d", p.Epoch, p.Pending, len(meanwhile))
		}
		return nil
	})
	var shipped []wal.Record
	returnsWhileParked(t, "a poll", func() error {
		b, err := svc.TailAfter(captured, nil, 0)
		for _, rec := range b.Records {
			shipped = append(shipped, wal.Record{Seq: rec.Seq, Payload: rec.Payload})
		}
		return err
	})
	finish()

	if seq, _, ok, err := wal.ReadSnapshot(dir); err != nil || !ok || seq != captured {
		t.Fatalf("the snapshot: seq %d, present %v, %v; want the captured seq %d", seq, ok, err, captured)
	}
	recs, _, err := wal.ReadLogAfter(filepath.Join(dir, horizon.LogName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped) != len(meanwhile) || fmt.Sprint(recs) != fmt.Sprint(shipped) {
		t.Fatalf("the journal holds %d records, want the %d journaled while the snapshot was written", len(recs), len(meanwhile))
	}
	want, wantPlan := fingerprint(t, svc), planBytes(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := planBytes(t, re); !bytes.Equal(got, wantPlan) {
		t.Fatalf("the recovered plan differs:\n got %.300s\nwant %.300s", got, wantPlan)
	}
	if fingerprint(t, re) != want {
		t.Fatal("the recovered state differs")
	}
}

// Close during a snapshot waits for the writer, and leaves the published
// snapshot and a journal that holds every acked record it does not cover.
func TestCloseDuringASnapshot(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := script(r, 3)
	adv := advanceIndices(ops)
	for _, op := range ops[:adv[0]] {
		applyOp(t, svc, op)
	}
	finish := parkedClose(t, svc, ops[adv[0]].to)
	for _, op := range ops[adv[0]+1 : adv[1]] {
		applyOp(t, svc, op)
	}
	want := fingerprint(t, svc)
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the snapshot was being written", err)
	case <-time.After(50 * time.Millisecond):
	}
	finish()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	re, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovery().SnapshotLoaded || fingerprint(t, re) != want {
		t.Fatalf("recovery after a close during a snapshot: %+v, state equal %v", re.Recovery(), fingerprint(t, re) == want)
	}
}

// The crash windows of a compaction that keeps records: the snapshot is
// published and the journal not yet compacted; the new journal was being
// written and never renamed into place (a torn tmp file beside the old one);
// and the new journal renamed into place. Each recovers every acked record
// and the same plan, byte for byte, and then reaches the uninterrupted run's
// state; the torn rewrite is removed.
func TestCrashRecoverAroundKeptCompaction(t *testing.T) {
	r := rig(t, durableParams())
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	refDir := t.TempDir()
	svc, err := horizon.Recover(refDir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := script(r, 3)
	adv := advanceIndices(ops)
	for _, op := range ops[:adv[0]] {
		applyOp(t, svc, op)
	}
	finish := parkedClose(t, svc, ops[adv[0]].to)
	cut := adv[1]
	for _, op := range ops[adv[0]+1 : cut] { // acked while the snapshot is written
		applyOp(t, svc, op)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oldLog := read(horizon.LogName)
	finish()
	mid, midPlan := fingerprint(t, svc), planBytes(t, svc)
	snap, newLog := read(wal.SnapshotName), read(horizon.LogName)
	if len(newLog) < 64 || len(newLog) >= len(oldLog) {
		t.Fatalf("fixture bug: the journal went from %d to %d bytes; the compaction must keep records and drop some", len(oldLog), len(newLog))
	}
	for _, op := range ops[cut:] {
		applyOp(t, svc, op)
	}
	want := fingerprint(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for _, img := range []struct {
		name     string
		log, tmp []byte
	}{
		{"published-before-compaction", oldLog, nil},
		{"torn-rewrite", oldLog, newLog[:len(newLog)-5]},
		{"after-rename", newLog, nil},
	} {
		t.Run(img.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{wal.SnapshotName: snap, horizon.LogName: img.log}
			if img.tmp != nil {
				files[horizon.LogName+".tmp"] = img.tmp
			}
			for name, b := range files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := horizon.Recover(dir, r.Model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := planBytes(t, re); !bytes.Equal(got, midPlan) {
				t.Fatalf("the recovered plan differs:\n got %.300s\nwant %.300s", got, midPlan)
			}
			if fingerprint(t, re) != mid {
				t.Fatal("the recovered state differs: an acked record is missing or extra")
			}
			if _, err := os.Stat(filepath.Join(dir, horizon.LogName+".tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the torn rewrite survived recovery: %v", err)
			}
			for _, op := range ops[cut:] {
				applyOp(t, re, op)
			}
			if fingerprint(t, re) != want {
				t.Fatal("the resumed run diverged from the uninterrupted one")
			}
		})
	}
}

// Closes, submits and polls from several goroutines at once, with a snapshot
// due at every close: the snapshot writers take turns, the journal is
// compacted under appends, a standby shipping all the while converges, and a
// recovery reaches the live state.
func TestConcurrentClosesAndPolls(t *testing.T) {
	r := rig(t, testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 20, RequestsPerUser: 5, Seed: 1,
	})
	cfg := horizon.Config{SnapshotEvery: 1, Fsync: wal.FsyncNever}
	dir := t.TempDir()
	svc, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	ctx := context.Background()
	follower := horizon.New(r.Model, horizon.Config{})
	var wg sync.WaitGroup
	submitted := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(submitted)
		for i, q := range reqs {
			if _, err := svc.Submit(q.Start, q); err != nil && !errors.Is(err, horizon.ErrLateArrival) {
				t.Error(err)
				return
			}
			if i%12 == 11 { // as a shard closes its own epochs, besides the closers below
				if _, err := svc.AdvanceBehind(ctx, 20*simtime.Minute); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-submitted:
					return
				default:
				}
				if _, err := svc.AdvanceBehind(ctx, 20*simtime.Minute); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-submitted:
				return
			default:
			}
			after, crc, ok := follower.ResumePoint()
			var check *uint32
			if ok {
				check = &crc
			}
			b, err := svc.TailAfter(after, check, 4)
			if err == nil && b.Snapshot != nil {
				err = follower.InstallSnapshot(b.SnapshotSeq, b.Snapshot)
			}
			for _, rec := range b.Records {
				if err == nil {
					_, err = follower.ApplyReplicated(ctx, wal.Record{Seq: rec.Seq, Payload: rec.Payload})
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := svc.AdvanceBehind(ctx, 0); err != nil {
		t.Fatal(err)
	}
	shipAll(t, svc, follower)
	want := fingerprint(t, svc)
	if svc.Epoch() < 5 {
		t.Fatalf("fixture bug: %d epochs closed", svc.Epoch())
	}
	if fingerprint(t, follower) != want {
		t.Fatal("the standby's state differs from the primary's")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := horizon.Recover(dir, r.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if fingerprint(t, re) != want {
		t.Fatal("the recovered state differs from the live one")
	}
}
