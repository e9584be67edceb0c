package replica

import (
	"fmt"

	"github.com/vodsim/vsp/internal/wal"
)

// Wire protocol. The follower GETs
//
//	/v1/replication/wal?after=<seq>&epoch=<observed leader epoch>&max=<n>
//
// from the primary and receives a Batch. The epoch parameter is the
// fencing token: a primary that sees a request carrying a *higher* epoch
// has provably been superseded and demotes itself before rejecting the
// request; a node that is not primary rejects with the stale-leadership
// error and its current epoch, which the follower observes. Records are
// shipped with their WAL CRCs and re-verified before apply, so transport
// corruption is caught by the same checksum that guards the disk format.

// Record is one shipped journal record.
type Record struct {
	Seq uint64 `json:"seq"`
	// CRC is the record's WAL checksum (CRC-32 IEEE over seq + payload).
	CRC uint32 `json:"crc"`
	// Payload is the journaled operation (base64 in JSON transit).
	Payload []byte `json:"payload"`
}

// FromWAL frames a decoded WAL record for shipping.
func FromWAL(rec wal.Record) Record {
	return Record{Seq: rec.Seq, CRC: wal.Checksum(rec.Seq, rec.Payload), Payload: rec.Payload}
}

// Verify checks the record's checksum, catching corruption introduced in
// transit (or a disagreeing implementation) before the record can reach
// the applier.
func (r Record) Verify() error {
	if got := wal.Checksum(r.Seq, r.Payload); got != r.CRC {
		return fmt.Errorf("replica: record seq %d checksum mismatch (shipped %08x, computed %08x)", r.Seq, r.CRC, got)
	}
	return nil
}

// Batch is one replication response.
type Batch struct {
	// LeaderEpoch is the primary's leadership epoch; the follower adopts
	// it (Observe) so a later promotion supersedes it correctly.
	LeaderEpoch uint64 `json:"leader_epoch"`
	// LastSeq is the primary's latest journaled sequence.
	LastSeq uint64 `json:"last_seq"`
	// Records are the journal records after the requested sequence, in
	// order. Empty when the follower is caught up or a snapshot is sent.
	Records []Record `json:"records,omitempty"`
	// Snapshot, when non-empty, is a full-state snapshot at SnapshotSeq;
	// the primary sends it when the requested records were already
	// compacted away.
	Snapshot    []byte `json:"snapshot,omitempty"`
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
}
