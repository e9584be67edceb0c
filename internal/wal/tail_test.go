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
