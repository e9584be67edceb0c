package wal

import (
	"errors"
	"fmt"
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

// WriteSnapshot atomically publishes a snapshot covering every record
// with sequence <= seq.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	if int64(len(payload)) > MaxRecordBytes {
		return fmt.Errorf("wal: %d-byte snapshot exceeds record cap %d", len(payload), int64(MaxRecordBytes))
	}
	if seq == 0 {
		return fmt.Errorf("wal: snapshot must cover at least one record (seq >= 1)")
	}
	tmp := filepath.Join(dir, SnapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// Magic and record header go out ahead of the payload, which is written
	// from the caller's slice: the file is snapMagic + the record Append
	// would frame, without the framed copy.
	var head [len(snapMagic) + recordHeaderSize]byte
	copy(head[:], snapMagic)
	putRecordHeader(head[len(snapMagic):], seq, payload)
	_, werr := f.Write(head[:])
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot publish: %w", err)
	}
	return syncDir(dir)
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
