package wal_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/vodsim/vsp/internal/wal"
)

// writeLog appends n records ("payload-1".."payload-n") and returns the
// log path.
func writeLog(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	log, _, _, err := wal.Open(path, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := 1; i <= n; i++ {
		if _, err := log.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestReadLogAfterResumesMidStream(t *testing.T) {
	path := writeLog(t, 5)
	for after := uint64(0); after <= 5; after++ {
		recs, tail, err := wal.ReadLogAfter(path, after)
		if err != nil || tail != wal.TailClean {
			t.Fatalf("after=%d: tail=%v err=%v", after, tail, err)
		}
		if len(recs) != int(5-after) {
			t.Fatalf("after=%d: got %d records, want %d", after, len(recs), 5-after)
		}
		for i, rec := range recs {
			if want := after + uint64(i) + 1; rec.Seq != want {
				t.Fatalf("after=%d record %d: seq %d, want %d", after, i, rec.Seq, want)
			}
		}
	}
}

// Checksum is the wire-integrity primitive replication re-verifies on
// the follower side: it must bind both the payload and the sequence.
func TestChecksumBindsSeqAndPayload(t *testing.T) {
	sum := wal.Checksum(7, []byte("payload"))
	if sum != wal.Checksum(7, []byte("payload")) {
		t.Fatal("checksum not deterministic")
	}
	if sum == wal.Checksum(8, []byte("payload")) {
		t.Fatal("checksum ignores the sequence number")
	}
	if sum == wal.Checksum(7, []byte("payloae")) {
		t.Fatal("checksum ignores the payload")
	}
	if want := crc32.ChecksumIEEE(append(binary.LittleEndian.AppendUint64(nil, 7), "payload"...)); sum != want {
		t.Fatalf("checksum %08x, want CRC-32 (IEEE) over the little-endian seq then the payload, %08x", sum, want)
	}
	// It runs per record decoded and twice per record shipped.
	payload := []byte("payload")
	if allocs := testing.AllocsPerRun(100, func() { wal.Checksum(7, payload) }); allocs != 0 {
		t.Errorf("Checksum allocates %v times per call, want 0", allocs)
	}
}

// A missing log reads as an empty clean one: a fresh primary has nothing
// to ship yet, which is not an error.
func TestReadLogAfterMissingFile(t *testing.T) {
	recs, tail, err := wal.ReadLogAfter(filepath.Join(t.TempDir(), "absent.wal"), 0)
	if err != nil || tail != wal.TailClean || len(recs) != 0 {
		t.Fatalf("missing file: recs=%d tail=%v err=%v, want empty clean", len(recs), tail, err)
	}
}

// A torn tail (crash mid-append) yields the whole-record prefix without
// an error: the torn record was never acknowledged.
func TestReadLogAfterToleratesTornTail(t *testing.T) {
	path := writeLog(t, 3)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, tail, err := wal.ReadLogAfter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tail != wal.TailTruncated || len(recs) != 2 {
		t.Fatalf("torn tail: %d records, tail=%v, want 2 truncated", len(recs), tail)
	}
}

// Mid-log corruption is an error wrapping ErrCorrupt — records past the
// flip must never be served to a follower.
func TestReadLogAfterDetectsCorruption(t *testing.T) {
	path := writeLog(t, 3)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0xFF // inside the final record's payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, tail, err := wal.ReadLogAfter(path, 0)
	if !errors.Is(err, wal.ErrCorrupt) || tail != wal.TailCorrupt {
		t.Fatalf("corrupted log: tail=%v err=%v, want ErrCorrupt", tail, err)
	}
	if len(recs) != 0 {
		t.Fatalf("corrupt log served %d records; must serve none", len(recs))
	}
}

// ReadAfter reads, by the offsets the log keeps, exactly what decoding the
// whole file yields after the same seq, capped at the limit, both from the
// index Append builds and from the one Open builds from the records it
// decodes.
func TestReadAfterMatchesTheWholeFile(t *testing.T) {
	path := writeLog(t, 7)
	check := func(t *testing.T, log *wal.Log) {
		t.Helper()
		all, _, err := wal.ReadLogAfter(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		for after := uint64(0); after <= 8; after++ {
			for _, limit := range []int{0, 1, 3} {
				got, err := log.ReadAfter(after, limit)
				if err != nil {
					t.Fatalf("after %d limit %d: %v", after, limit, err)
				}
				want := all
				for len(want) > 0 && want[0].Seq <= after {
					want = want[1:]
				}
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after %d limit %d: read %v, the file holds %v", after, limit, got, want)
				}
			}
		}
	}
	log, _, _, err := wal.Open(path, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	check(t, log)
	if _, err := log.Append([]byte("payload-8")); err != nil {
		t.Fatal(err)
	}
	check(t, log)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// A compaction that keeps records leaves a log file holding exactly those
// records, still read by offset, still appended to in sequence, and reopened
// as they are; one that keeps nothing is Reset, and one that drops nothing
// leaves the file alone.
func TestCompactThroughKeepsTheLaterRecords(t *testing.T) {
	path := writeLog(t, 7)
	log, _, _, err := wal.Open(path, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	seqs := func(recs []wal.Record) (out []uint64) {
		for _, r := range recs {
			out = append(out, r.Seq)
		}
		return out
	}
	onDisk := func() []uint64 {
		recs, tail, err := wal.ReadLogAfter(path, 0)
		if err != nil || tail != wal.TailClean {
			t.Fatalf("the compacted log: tail %v, %v", tail, err)
		}
		return seqs(recs)
	}
	if err := log.CompactThrough(0); err != nil || fmt.Sprint(onDisk()) != "[1 2 3 4 5 6 7]" {
		t.Fatalf("a compaction through seq 0 left %v (%v)", onDisk(), err)
	}
	if err := log.CompactThrough(4); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(); fmt.Sprint(got) != "[5 6 7]" {
		t.Fatalf("after compacting through seq 4 the file holds %v, want [5 6 7]", got)
	}
	if seq, err := log.Append([]byte("payload-8")); err != nil || seq != 8 {
		t.Fatalf("append after the compaction: seq %d, %v; want 8", seq, err)
	}
	recs, err := log.ReadAfter(5, 0)
	if err != nil || fmt.Sprint(seqs(recs)) != "[6 7 8]" || string(recs[2].Payload) != "payload-8" {
		t.Fatalf("read after seq 5: %v, %v; want seqs [6 7 8]", recs, err)
	}
	if recs, err := log.ReadAfter(0, 0); err != nil || fmt.Sprint(seqs(recs)) != "[5 6 7 8]" {
		t.Fatalf("read after seq 0: %v, %v; want seqs [5 6 7 8]", seqs(recs), err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the rewrite's temporary file is left behind: %v", err)
	}
	if err := log.CompactThrough(8); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(); len(got) != 0 {
		t.Fatalf("after compacting through the last seq the file holds %v", got)
	}
	if recs, err := log.ReadAfter(0, 0); err != nil || len(recs) != 0 {
		t.Fatalf("read of an emptied log: %v, %v", recs, err)
	}
}

// A new log a compaction wrote but never renamed into place is removed by
// Open, which serves the log it would have replaced.
func TestOpenRemovesATornRewrite(t *testing.T) {
	path := writeLog(t, 3)
	if err := os.WriteFile(path+".tmp", []byte("VSPWAL1\n\x05\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs, tail, err := wal.Open(path, wal.Options{})
	if err != nil || tail != wal.TailClean || len(recs) != 3 {
		t.Fatalf("open beside a torn rewrite: %d records, tail %v, %v; want 3, clean", len(recs), tail, err)
	}
	defer log.Close()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the torn rewrite is still there: %v", err)
	}
}

// A record damaged on disk after it was appended is an error wrapping
// ErrCorrupt when it is read by offset, never a record shipped.
func TestReadAfterDetectsCorruption(t *testing.T) {
	path := writeLog(t, 3)
	log, _, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err == nil {
		_, err = f.WriteAt([]byte{'X'}, fi.Size()-2) // inside the last record's payload
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := log.ReadAfter(1, 0); !errors.Is(err, wal.ErrCorrupt) || recs != nil {
		t.Fatalf("read over a damaged record: %v, %v; want ErrCorrupt and nothing", recs, err)
	}
	if recs, err := log.ReadAfter(0, 2); err != nil || len(recs) != 2 {
		t.Fatalf("read of the two whole records: %d, %v", len(recs), err)
	}
}

// On a long log, reads and a compaction that keeps most of the records
// still find every record where it is, and appends after the compaction
// are read by the shifted offsets.
func TestReadAfterOverALongCompactedLog(t *testing.T) {
	path := writeLog(t, 2500)
	log, _, _, err := wal.Open(path, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	check := func(after uint64, limit, want int) {
		t.Helper()
		recs, err := log.ReadAfter(after, limit)
		if err != nil || len(recs) != want {
			t.Fatalf("after %d limit %d: %d records, %v; want %d", after, limit, len(recs), err, want)
		}
		for i, rec := range recs {
			if seq := after + 1 + uint64(i); rec.Seq != seq || string(rec.Payload) != fmt.Sprintf("payload-%d", seq) {
				t.Fatalf("after %d: record %d is seq %d %q", after, i, rec.Seq, rec.Payload)
			}
		}
	}
	check(1023, 3, 3)
	check(2047, 0, 453)
	if err := log.CompactThrough(700); err != nil {
		t.Fatal(err)
	}
	for _, after := range []uint64{700, 1023, 1724, 2047, 2499} {
		check(after, 0, int(2500-after))
	}
	if seq, err := log.Append([]byte("payload-2501")); err != nil || seq != 2501 {
		t.Fatalf("append after the compaction: seq %d, %v", seq, err)
	}
	check(2400, 0, 101)
}
