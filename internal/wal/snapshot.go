package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// snapMagic begins every snapshot file.
const snapMagic = "VSPSNAP1"

// SnapshotName is the snapshot's file name inside a data directory.
const SnapshotName = "snapshot"

// A snapshot is a single framed record (same layout as a log record)
// whose sequence number is the last log sequence the snapshot covers:
// recovery loads the snapshot and then replays only log records with a
// higher sequence. The file is published atomically — written to a
// temporary name, fsynced, renamed over SnapshotName, directory fsynced —
// so a reader only ever observes no snapshot or a complete one; a torn
// snapshot cannot exist, and any checksum failure in one is corruption.

// snapHeaderSize is the magic and the record header that precede the payload.
const snapHeaderSize = len(snapMagic) + recordHeaderSize

// SnapshotWriter streams one snapshot to disk. The payload arrives in chunks,
// each written as it comes and added to the record's checksum; the magic and
// the record header, which carry the payload's length and checksum, go in
// last, into the room left for them at the front of the file. The file is the
// magic plus the record Append would frame, whatever the chunks were.
type SnapshotWriter struct {
	f   *os.File
	dir string
	seq uint64
	crc uint32
	n   int64 // payload bytes written
	err error // the first failure; every later call returns it
}

// CreateSnapshot starts a snapshot covering every record with sequence <= seq.
// Nothing is published until Publish.
func CreateSnapshot(dir string, seq uint64) (*SnapshotWriter, error) {
	if seq == 0 {
		return nil, fmt.Errorf("wal: snapshot must cover at least one record (seq >= 1)")
	}
	f, err := os.OpenFile(filepath.Join(dir, SnapshotName+".tmp"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	w := &SnapshotWriter{f: f, dir: dir, seq: seq, crc: checksum(seq, nil)}
	if _, err := f.Seek(int64(snapHeaderSize), io.SeekStart); err != nil {
		w.fail(err)
		return nil, w.err
	}
	return w, nil
}

// Write appends p to the payload. A payload past MaxRecordBytes, or a failed
// write, fails the snapshot: the temporary file is removed, and this and every
// later call return the error.
func (w *SnapshotWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.n += int64(len(p)); w.n > MaxRecordBytes {
		w.fail(fmt.Errorf("%d-byte snapshot exceeds record cap %d", w.n, int64(MaxRecordBytes)))
		return 0, w.err
	}
	if _, err := w.f.Write(p); err != nil {
		w.fail(err)
		return 0, w.err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}

// Publish writes the header, syncs the file and renames it over the published
// snapshot, then syncs the directory. On failure nothing is published.
func (w *SnapshotWriter) Publish() error {
	if w.err != nil {
		return w.err
	}
	var head [snapHeaderSize]byte
	copy(head[:], snapMagic)
	putRecordHeader(head[len(snapMagic):], w.seq, w.n, w.crc)
	_, err := w.f.WriteAt(head[:], 0)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.fail(err)
		return w.err
	}
	err = w.f.Close()
	if err == nil {
		err = os.Rename(w.f.Name(), filepath.Join(w.dir, SnapshotName))
	}
	if err != nil {
		os.Remove(w.f.Name())
		w.err = fmt.Errorf("wal: snapshot publish: %w", err)
		return w.err
	}
	w.err = errors.New("wal: snapshot already published")
	return syncDir(w.dir)
}

// Abort discards the snapshot being written, if it is not yet published.
func (w *SnapshotWriter) Abort() {
	if w.err == nil {
		w.fail(errors.New("aborted"))
	}
}

// fail records the snapshot's first failure and removes its temporary file.
func (w *SnapshotWriter) fail(err error) {
	w.err = fmt.Errorf("wal: snapshot: %w", err)
	w.f.Close()
	os.Remove(w.f.Name())
}

// WriteSnapshot atomically publishes a snapshot covering every record
// with sequence <= seq: the streaming writer, handed the payload as one chunk.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	w, err := CreateSnapshot(dir, seq)
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Publish()
}

// ReadSnapshot loads the published snapshot. ok is false when none
// exists; a present but damaged snapshot is an error wrapping ErrCorrupt.
func ReadSnapshot(dir string) (seq uint64, payload []byte, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, false, fmt.Errorf("%w: snapshot bad magic", ErrCorrupt)
	}
	rec, n, tail, ferr := decodeFrame(data[len(snapMagic):], 0)
	if ferr != nil {
		return 0, nil, false, fmt.Errorf("wal: snapshot: %w: %v", ErrCorrupt, ferr)
	}
	if tail != TailClean || len(snapMagic)+n != len(data) {
		return 0, nil, false, fmt.Errorf("%w: snapshot is not exactly one whole record", ErrCorrupt)
	}
	return rec.Seq, rec.Payload, true, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Not every platform supports it; failure to open or sync the directory
// is reported only when it is not a support gap.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
