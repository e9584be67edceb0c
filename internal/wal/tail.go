package wal

import (
	"errors"
	"io/fs"
	"os"
)

// Tail reading: the replication shipper resumes from any acknowledged
// sequence. A primary serves it from its open Log, whose ReadAfter reads
// just the records shipped by the offsets the log keeps. ReadLogAfter below
// reads a log file whole, from outside the process that appends to it: the
// file is append-only between compactions, so such a read observes a valid
// prefix at worst (the writer's in-flight record decodes as a truncated tail).

// Checksum returns the CRC-32 (IEEE) a record with this sequence and
// payload must carry — the same checksum the on-disk framing stores.
// Exported so replication transport can re-verify shipped records before
// applying them.
func Checksum(seq uint64, payload []byte) uint32 {
	return checksum(seq, payload)
}

// ReadLogAfter decodes the whole log at path and returns the records with
// sequence numbers strictly greater than after, in sequence order. It costs
// the file, not the records returned: a Log that is open reads its tail with
// ReadAfter. A
// missing file reads as an empty, clean log (the journal may have just
// been compacted away). A truncated tail is tolerated — the torn record
// was never acknowledged — but corruption is returned as an error
// wrapping ErrCorrupt, exactly like Open.
func ReadLogAfter(path string, after uint64) ([]Record, Tail, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, TailClean, nil
	}
	if err != nil {
		return nil, TailClean, err
	}
	recs, tail, derr := DecodeAll(data)
	if derr != nil {
		return nil, tail, derr
	}
	i := 0
	for i < len(recs) && recs[i].Seq <= after {
		i++
	}
	return recs[i:], tail, nil
}
