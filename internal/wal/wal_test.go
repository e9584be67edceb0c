package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, path string, opts Options) (*Log, []Record, Tail) {
	t.Helper()
	l, recs, tail, err := Open(path, opts)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, recs, tail
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, tail := openT(t, path, Options{})
	if len(recs) != 0 || tail != TailClean {
		t.Fatalf("fresh log: %d records, tail %v", len(recs), tail)
	}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma gamma gamma")}
	for i, p := range payloads {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, tail := openT(t, path, Options{})
	if tail != TailClean {
		t.Fatalf("reopen tail %v", tail)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("reopen: %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if l2.NextSeq() != uint64(len(payloads)+1) {
		t.Fatalf("next seq %d", l2.NextSeq())
	}
}

// A torn final record — any strict prefix of the file that cuts into the
// last record — must be discarded on open, keeping the complete prefix,
// and the log must accept appends afterwards.
func TestTornTailTruncatedAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	l, _, _ := openT(t, ref, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries: end of magic, end of each record.
	boundaries := map[int]int{len(logMagic): 0}
	off := len(logMagic)
	for i := 0; i < 3; i++ {
		off += recordHeaderSize + len(fmt.Sprintf("record-%d", i))
		boundaries[off] = i + 1
	}

	for cut := 1; cut < len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, tail, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		wantRecs, atBoundary := boundaries[cut]
		if !atBoundary && cut > 0 {
			// Mid-record: the valid prefix is the records before the cut.
			wantRecs = 0
			for b, n := range boundaries {
				if b <= cut && n > wantRecs {
					wantRecs = n
				}
			}
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), wantRecs)
		}
		if atBoundary && cut > 0 && tail != TailClean {
			t.Fatalf("cut %d on boundary: tail %v", cut, tail)
		}
		if !atBoundary && tail != TailTruncated {
			t.Fatalf("cut %d mid-record: tail %v", cut, tail)
		}
		// The log must be append-ready after tail repair.
		if _, err := l.Append([]byte("after-crash")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, recs2, tail2, err := Open(path, Options{})
		if err != nil || tail2 != TailClean {
			t.Fatalf("cut %d: reopen after repair: %v tail %v", cut, err, tail2)
		}
		if len(recs2) != wantRecs+1 {
			t.Fatalf("cut %d: %d records after repair append, want %d", cut, len(recs2), wantRecs+1)
		}
		l2.Close()
	}
}

// A bit flip inside a complete record is corruption: Open must refuse.
func TestCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, _ := openT(t, path, Options{})
	if _, err := l.Append([]byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("payload-two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of the first record.
	data[len(logMagic)+recordHeaderSize] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, tail, err := Open(path, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted log opened: tail %v err %v", tail, err)
	}
	if tail != TailCorrupt {
		t.Fatalf("tail %v, want corrupt", tail)
	}

	// Foreign file contents are corruption too, not an empty log.
	bogus := filepath.Join(dir, "bogus.log")
	if err := os.WriteFile(bogus, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(bogus, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file opened: %v", err)
	}
}

func TestSnapshotRoundTripAndReset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, _ := openT(t, path, Options{})
	var last uint64
	for i := 0; i < 5; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("op-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	state := []byte(`{"epoch":3}`)
	if err := WriteSnapshot(dir, last, state); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]byte("post-snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != last+1 {
		t.Fatalf("post-reset seq %d, want %d (monotonic across compaction)", seq, last+1)
	}
	l.Close()

	gotSeq, payload, ok, err := ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("read snapshot: ok=%v err=%v", ok, err)
	}
	if gotSeq != last || !bytes.Equal(payload, state) {
		t.Fatalf("snapshot (%d, %q), want (%d, %q)", gotSeq, payload, last, state)
	}
	_, recs, _ := openT(t, path, Options{})
	if len(recs) != 1 || recs[0].Seq != last+1 {
		t.Fatalf("compacted log: %+v", recs)
	}

	// No snapshot in a fresh dir is a clean miss, not an error.
	if _, _, ok, err := ReadSnapshot(t.TempDir()); ok || err != nil {
		t.Fatalf("empty dir snapshot: ok=%v err=%v", ok, err)
	}
	// A damaged snapshot is corruption.
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot read: %v", err)
	}
}

// The snapshot goes out as a header and the caller's payload, not as one
// framed copy; on disk it is still the magic followed by exactly the record
// Append would frame, down to an empty payload.
func TestSnapshotFileIsMagicPlusOneRecord(t *testing.T) {
	for _, payload := range [][]byte{[]byte(`{"epoch":3}`), bytes.Repeat([]byte("history "), 1<<16), nil} {
		dir := t.TempDir()
		if err := WriteSnapshot(dir, 41, payload); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte(snapMagic), appendRecord(nil, 41, payload)...); !bytes.Equal(got, want) {
			t.Errorf("%d-byte payload: %d bytes on disk differ from magic + record (%d bytes)", len(payload), len(got), len(want))
		}
	}
}

// A crash between snapshot publication and log reset leaves covered
// records in the log; their sequences are <= the snapshot's, so recovery
// can skip them. This pins the invariant the horizon recovery relies on.
func TestSnapshotCoversStaleRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, _ := openT(t, path, Options{})
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSnapshot(dir, 3, []byte("state")); err != nil {
		t.Fatal(err)
	}
	l.Close() // crash before Reset: all 4 records remain

	snapSeq, _, ok, err := ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatal(err)
	}
	_, recs, _ := openT(t, path, Options{})
	fresh := 0
	for _, r := range recs {
		if r.Seq > snapSeq {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d records past snapshot seq %d, want 1", fresh, snapSeq)
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v err %v", p, got, err)
		}
	}
	// "interval" was a policy once; whoever still asks for it is told what
	// there is.
	for _, gone := range []string{"interval", "sometimes"} {
		_, err := ParseFsyncPolicy(gone)
		if err == nil || !strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "never") {
			t.Errorf("ParseFsyncPolicy(%q): err %v, want an error naming always and never", gone, err)
		}
	}
}

// The flush policy is what an ack means: under FsyncAlways Append does not
// return before the record is synced, under FsyncNever it never syncs. A
// pipe takes the write and refuses the fsync, so the sync shows as Append's
// error.
func TestAppendSyncsUnderAlwaysOnly(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		defer w.Close()
		if err := w.Sync(); err == nil {
			t.Skip("this platform syncs a pipe")
		}
		l := &Log{f: w, opts: Options{Fsync: policy}, nextSeq: 1}
		_, err = l.Append([]byte("x"))
		if synced := err != nil && strings.Contains(err.Error(), "wal: sync"); synced != (policy == FsyncAlways) {
			t.Errorf("fsync %v: Append returned %v", policy, err)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l, _, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
}

// Append frames header and payload into the Log's own buffer. Once that
// buffer has grown to the record size, appending allocates nothing — under
// every flush policy, the flush being a system call.
func TestAppendSteadyStateAllocs(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncAlways} {
		l, _, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), Options{Fsync: policy})
		payload := []byte(`{"op":"submit","at":86400,"user":23,"video":49,"start":86400}`)
		if _, err := l.Append(payload); err != nil { // grows the frame buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("fsync %v: Append allocates %v times per record, want 0", policy, allocs)
		}
	}
}

// A snapshot streamed in chunks of any size is the file WriteSnapshot writes
// of their concatenation. A payload past the record cap, or an aborted one,
// publishes nothing and leaves no temporary file.
func TestSnapshotWriterStreamsChunks(t *testing.T) {
	payload := bytes.Repeat([]byte("history, chunked "), 5000)
	want := append([]byte(snapMagic), appendRecord(nil, 41, payload)...)
	for _, chunk := range []int{1, 7, 4096, len(payload)} {
		dir := t.TempDir()
		w, err := CreateSnapshot(dir, 41)
		if err != nil {
			t.Fatal(err)
		}
		for rest := payload; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
			if _, err := w.Write(rest[:min(chunk, len(rest))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Publish(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, SnapshotName)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte chunks: %d bytes on disk (%v), want the %d of magic + record", chunk, len(got), err, len(want))
		}
	}

	for name, fail := range map[string]func(*SnapshotWriter) error{
		"over the cap": func(w *SnapshotWriter) error {
			if _, err := w.Write([]byte("state")); err != nil {
				return err
			}
			_, err := w.Write(make([]byte, MaxRecordBytes))
			return err
		},
		"aborted": func(w *SnapshotWriter) error {
			w.Write([]byte("state"))
			w.Abort()
			return errors.New("aborted")
		},
	} {
		dir := t.TempDir()
		w, err := CreateSnapshot(dir, 41)
		if err != nil {
			t.Fatal(err)
		}
		if err := fail(w); err == nil {
			t.Fatalf("%s: the write succeeded", name)
		}
		if err := w.Publish(); err == nil {
			t.Fatalf("%s: published", name)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("%s: the directory holds %v (%v), want nothing", name, entries, err)
		}
	}
}
