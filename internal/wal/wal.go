// Package wal implements the write-ahead log the durable horizon service
// journals through: an append-only file of length-prefixed,
// CRC32-checksummed records, plus an atomically-replaced snapshot file
// that compacts the log.
//
// On-disk layout of a log file:
//
//	| magic "VSPWAL1\n" (8 bytes) |
//	| record | record | ... |
//
// and of one record:
//
//	| len uint32 LE | crc uint32 LE | seq uint64 LE | payload (len bytes) |
//
// where crc is CRC-32 (IEEE) over the little-endian seq followed by the
// payload, and seq is a strictly increasing record sequence number that
// survives log compaction (the snapshot stores the sequence it covers, so
// a crash between snapshot publication and log truncation only leaves
// records the next recovery provably skips).
//
// The reader distinguishes two failure classes, which matters for crash
// recovery: a *truncated tail* (the file ends mid-record — the expected
// result of a crash between write and sync) is tolerated, the torn bytes
// are discarded and the log reopened for appending; *corruption* (a CRC
// mismatch, an impossible record length, a sequence regression, a foreign
// magic) is never silently repaired — the open fails and an operator must
// intervene, because replaying around damaged history could re-derive a
// schedule that disagrees with what was promised to users.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// logMagic begins every log file; a file that starts differently was not
// written by this package and is rejected rather than replayed.
const logMagic = "VSPWAL1\n"

// recordHeaderSize is len + crc + seq.
const recordHeaderSize = 4 + 4 + 8

// MaxRecordBytes caps a single record's payload. A legitimate writer
// never comes near it; a longer declared length is read as corruption
// (most likely a damaged length field), not as an instruction to wait
// for 4 GiB of payload.
const MaxRecordBytes = 64 << 20

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the price of one fsync per operation.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves flushing to the operating system: fastest, and a
	// crash may lose everything since the last incidental flush.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the flag spelling ("always", "never").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
}

// Options configures a Log.
type Options struct {
	// Fsync is the flush policy (default FsyncAlways).
	Fsync FsyncPolicy
}

// Record is one decoded log entry.
type Record struct {
	// Seq is the record's sequence number, strictly increasing across
	// the life of the log (compaction does not reset it).
	Seq uint64
	// Payload is the application data, owned by the caller.
	Payload []byte
}

// Tail describes how a decoded byte stream ended.
type Tail int

const (
	// TailClean: the stream ends exactly on a record boundary.
	TailClean Tail = iota
	// TailTruncated: the stream ends mid-record — the signature of a
	// crash between write and sync. The complete prefix is valid; the
	// torn bytes carry no acknowledged data and are safe to discard.
	TailTruncated
	// TailCorrupt: a structurally complete record failed its checksum,
	// declared an impossible length, or regressed the sequence — damage,
	// not a torn write. Decoded records up to the damage are returned,
	// but recovery must not proceed past it silently.
	TailCorrupt
)

// String names the disposition.
func (t Tail) String() string {
	switch t {
	case TailClean:
		return "clean"
	case TailTruncated:
		return "truncated"
	case TailCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Tail(%d)", int(t))
}

// ErrCorrupt is wrapped by every corruption error DecodeAll and Open
// report, so callers can distinguish damage from I/O failures.
var ErrCorrupt = errors.New("wal: corrupt log")

// DecodeAll decodes a complete log byte stream (including the file
// magic). It never panics on any input. The returned records are the
// valid prefix; Tail reports how the stream ended, and err is non-nil
// exactly when the tail is corrupt.
func DecodeAll(data []byte) ([]Record, Tail, error) {
	recs, tail, _, err := decode(data)
	return recs, tail, err
}

// decode additionally returns the byte length of the valid prefix
// (magic + complete records), which Open uses to truncate a torn tail.
func decode(data []byte) (recs []Record, tail Tail, validLen int64, err error) {
	if len(data) == 0 {
		return nil, TailClean, 0, nil
	}
	if len(data) < len(logMagic) {
		if string(data) == logMagic[:len(data)] {
			// A crash can tear even the header write of a brand-new log.
			return nil, TailTruncated, 0, nil
		}
		return nil, TailCorrupt, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if string(data[:len(logMagic)]) != logMagic {
		return nil, TailCorrupt, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := int64(len(logMagic))
	var prevSeq uint64
	for off < int64(len(data)) {
		rec, n, tail, ferr := decodeFrame(data[off:], prevSeq)
		switch tail {
		case TailTruncated:
			return recs, TailTruncated, off, nil
		case TailCorrupt:
			return recs, TailCorrupt, off, fmt.Errorf("%w: record %d %v", ErrCorrupt, len(recs), ferr)
		}
		prevSeq = rec.Seq
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
		off += int64(n)
	}
	return recs, TailClean, off, nil
}

// decodeFrame reads the one record at the head of rem — the frame a log
// holds many of and a snapshot exactly one. The record's payload aliases rem
// and n is the frame's length. tail is TailClean for a whole record whose
// sequence number is above prevSeq, TailTruncated when rem ends inside the
// frame, and TailCorrupt, with err saying what is wrong with it, otherwise.
func decodeFrame(rem []byte, prevSeq uint64) (rec Record, n int, tail Tail, err error) {
	if len(rem) < recordHeaderSize {
		return Record{}, 0, TailTruncated, nil
	}
	ln := binary.LittleEndian.Uint32(rem[0:4])
	crc := binary.LittleEndian.Uint32(rem[4:8])
	seq := binary.LittleEndian.Uint64(rem[8:16])
	if ln > MaxRecordBytes {
		return Record{}, 0, TailCorrupt, fmt.Errorf("declares %d-byte payload (cap %d)", ln, MaxRecordBytes)
	}
	n = recordHeaderSize + int(ln)
	if len(rem) < n {
		return Record{}, 0, TailTruncated, nil
	}
	payload := rem[recordHeaderSize:n]
	if got := checksum(seq, payload); got != crc {
		return Record{}, 0, TailCorrupt, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	if seq <= prevSeq {
		return Record{}, 0, TailCorrupt, fmt.Errorf("sequence %d does not advance past %d", seq, prevSeq)
	}
	return Record{Seq: seq, Payload: payload}, n, TailClean, nil
}

// checksum is the CRC-32 (IEEE) a record carries: over the little-endian
// seq, then the payload. The eight seq bytes go through the table here:
// handed to package crc32 as a slice they would have to live on the heap (its
// IEEE update is a function variable), an allocation per record.
func checksum(seq uint64, payload []byte) uint32 {
	crc := ^uint32(0)
	for shift := 0; shift < 64; shift += 8 {
		crc = crc32.IEEETable[byte(crc)^byte(seq>>shift)] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, payload)
}

// putRecordHeader fills the recordHeaderSize bytes that precede a record's
// n-byte payload, whose checksum is crc.
func putRecordHeader(head []byte, seq uint64, n int64, crc uint32) {
	binary.LittleEndian.PutUint32(head[0:4], uint32(n))
	binary.LittleEndian.PutUint32(head[4:8], crc)
	binary.LittleEndian.PutUint64(head[8:16], seq)
}

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	var head [recordHeaderSize]byte
	putRecordHeader(head[:], seq, int64(len(payload)), checksum(seq, payload))
	return append(append(dst, head[:]...), payload...)
}

// Log is an open write-ahead log. It is not safe for concurrent use; the
// horizon service serializes access under its own mutex.
type Log struct {
	f       *os.File
	path    string
	opts    Options
	nextSeq uint64
	frame   []byte // the record being appended, header and payload; reused from one Append to the next
	end     int64  // the file's length: where the next record goes
	index   []at   // where each record in the file starts, in sequence order; reused across compactions
}

// at is where one record starts in the log file.
type at struct {
	seq uint64
	off int64
}

// tmpSuffix names the file a compaction that keeps records writes the new
// log to before renaming it over the old one.
const tmpSuffix = ".tmp"

// Open opens (creating if absent) the log at path, decodes and returns
// every complete record for replay, and truncates a torn tail in place so
// the log is append-ready. A corrupt log fails the open with an error
// wrapping ErrCorrupt.
func Open(path string, opts Options) (*Log, []Record, Tail, error) {
	// A compaction's new log that was never renamed into place is a torn
	// rewrite: the log at path holds every record it would have.
	os.Remove(path + tmpSuffix)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, TailClean, fmt.Errorf("wal: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, TailClean, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, tail, validLen, derr := decode(data)
	if tail == TailCorrupt {
		f.Close()
		return nil, recs, tail, fmt.Errorf("wal: %s: %w", path, derr)
	}
	l := &Log{f: f, path: path, opts: opts, nextSeq: 1, end: max(validLen, int64(len(logMagic)))}
	if len(recs) > 0 {
		l.nextSeq = recs[len(recs)-1].Seq + 1
	}
	for i, off := 0, int64(len(logMagic)); i < len(recs); i++ {
		l.index = append(l.index, at{recs[i].Seq, off})
		off += int64(recordHeaderSize + len(recs[i].Payload))
	}
	if len(data) == 0 {
		// Brand-new log: publish the header before any record.
		if _, err := f.Write([]byte(logMagic)); err != nil {
			f.Close()
			return nil, nil, tail, fmt.Errorf("wal: write header: %w", err)
		}
		if err := l.Sync(); err != nil {
			f.Close()
			return nil, nil, tail, err
		}
	} else if tail == TailTruncated {
		// Discard the torn record: validLen covers magic + whole records.
		// A torn header (validLen 0) is re-written from scratch.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, recs, tail, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, recs, tail, fmt.Errorf("wal: seek %s: %w", path, err)
		}
		if validLen == 0 {
			if _, err := f.Write([]byte(logMagic)); err != nil {
				f.Close()
				return nil, recs, tail, fmt.Errorf("wal: rewrite header: %w", err)
			}
		}
		if err := l.Sync(); err != nil {
			f.Close()
			return nil, recs, tail, err
		}
	} else {
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, recs, tail, fmt.Errorf("wal: seek %s: %w", path, err)
		}
	}
	return l, recs, tail, nil
}

// Append journals one payload and returns its sequence number. The
// record is on stable storage when Append returns iff the policy is
// FsyncAlways.
func (l *Log) Append(payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: %d-byte payload exceeds record cap %d", len(payload), int64(MaxRecordBytes))
	}
	seq := l.nextSeq
	l.frame = appendRecord(l.frame[:0], seq, payload)
	n, err := l.f.Write(l.frame)
	off := l.end
	l.end += int64(n)
	if err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.index = append(l.index, at{seq, off})
	l.nextSeq++
	if l.opts.Fsync == FsyncAlways {
		if err := l.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes the log to stable storage regardless of policy.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Reset empties the log after a snapshot has been published, keeping the
// sequence counter monotonic so pre-snapshot records that survive a crash
// between snapshot and reset are recognizably stale.
func (l *Log) Reset() error {
	if err := l.f.Truncate(int64(len(logMagic))); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	l.end, l.index = int64(len(logMagic)), l.index[:0]
	return l.Sync()
}

// CompactThrough drops the records with sequence <= seq, which a published
// snapshot covers, and keeps the later ones. With none later it is Reset.
// Otherwise the kept records' bytes are read in one piece and written, after
// the magic, to a new file, which is synced and renamed over the log before
// the directory is synced: a crash at any point leaves the old log or the
// new one, and each holds every record the snapshot does not cover. The work
// is the kept records', not the dropped ones'. On failure before the rename
// the old log stays in use, whole.
func (l *Log) CompactThrough(seq uint64) error {
	i := l.indexAfter(seq)
	switch {
	case i == len(l.index):
		return l.Reset()
	case i == 0:
		return nil
	}
	from := l.index[i].off
	buf := make([]byte, int64(len(logMagic))+l.end-from)
	copy(buf, logMagic)
	if _, err := l.f.ReadAt(buf[len(logMagic):], from); err != nil {
		return fmt.Errorf("wal: compact: read %s: %w", l.path, err)
	}
	tmp := l.path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The new file is the log now; its offset is at its end, ready to append.
	l.f.Close()
	l.f = f
	shift := from - int64(len(logMagic))
	n := copy(l.index, l.index[i:])
	l.index = l.index[:n]
	for k := range l.index {
		l.index[k].off -= shift
	}
	l.end -= shift
	return syncDir(filepath.Dir(l.path))
}

// ReadAfter returns the records with sequence above after, at most limit of
// them (0: no cap), in sequence order. Their bytes are found by the offsets
// the log keeps and read in one piece, so the read costs the records
// returned, not the log; their payloads share that one buffer. Records a
// compaction dropped are not there: the first one returned may be past
// after+1. Each record is checked as Open checks it, and a record that does
// not decode where the log put it is an error wrapping ErrCorrupt.
func (l *Log) ReadAfter(after uint64, limit int) ([]Record, error) {
	i, j := l.indexAfter(after), len(l.index)
	if limit > 0 && j-i > limit {
		j = i + limit
	}
	if i == j {
		return nil, nil
	}
	from, to := l.index[i].off, l.end
	if j < len(l.index) {
		to = l.index[j].off
	}
	buf := make([]byte, to-from)
	if _, err := l.f.ReadAt(buf, from); err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", l.path, err)
	}
	recs := make([]Record, 0, j-i)
	var prev uint64
	for k, off := i, 0; k < j; k++ {
		rec, n, tail, err := decodeFrame(buf[off:], prev)
		switch want := l.index[k].seq; {
		case tail == TailTruncated:
			err = fmt.Errorf("record seq %d ends past the bytes appended", want)
		case tail == TailClean && rec.Seq != want:
			tail, err = TailCorrupt, fmt.Errorf("seq %d where seq %d was appended", rec.Seq, want)
		}
		if tail != TailClean {
			return nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, l.path, from+int64(off), err)
		}
		recs = append(recs, rec)
		prev = rec.Seq
		off += n
	}
	return recs, nil
}

// indexAfter returns the position in the index of the first record with
// sequence above seq.
func (l *Log) indexAfter(seq uint64) int {
	return sort.Search(len(l.index), func(k int) bool { return l.index[k].seq > seq })
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// EnsureSeqAbove bumps the sequence counter past seq; recovery calls it
// with the snapshot's sequence so appends never reuse a covered number.
func (l *Log) EnsureSeqAbove(seq uint64) {
	if l.nextSeq <= seq {
		l.nextSeq = seq + 1
	}
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	serr := l.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
