package horizon

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/wal"
)

// Replication: a warm standby reconstructs the primary's state by
// applying the primary's journal records, in sequence order, through the
// same deterministic replay path Recover uses. The applier is idempotent
// by sequence number (a duplicated delivery is skipped) and refuses
// gaps, so shipping may resume from any acknowledged sequence and may
// deliver a record any number of times without diverging the state.
//
// A durable follower re-journals every applied record to its own data
// directory. Because Submit and Advance each journal exactly one record
// and the sequence counter starts at 1, the follower's own journal
// assigns the same sequence numbers the primary did — a follower restart
// therefore recovers its applied position (AppliedSeq) with plain
// Recover and resumes shipping from there instead of from zero.

// ErrNotDurable is returned by TailAfter on an in-memory service: only a
// journaled primary has a WAL to ship.
var ErrNotDurable = errors.New("horizon: service has no journal (in-memory)")

// ErrDiverged is wrapped by TailAfter's refusal of a follower whose resume
// point is not in this service's history.
var ErrDiverged = errors.New(api.Diverged)

// AppliedSeq returns the latest journal sequence this service has
// durably applied: on a primary, the last sequence it journaled; on a
// follower, the last replicated record it applied. Shipping resumes
// from the next sequence.
func (s *Service) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// ResumePoint returns AppliedSeq and, when ok, the checksum of the record at
// it, which a follower's poll carries so the primary can tell whether the
// two histories agree there. ok is false when the service holds no such
// record: at seq 0, after a snapshot install, or after a recovery that
// replayed nothing past its snapshot.
func (s *Service) ResumePoint() (seq uint64, crc uint32, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq, s.lastCRC, s.haveCRC
}

// TailAfter assembles the replication batch following the given sequence,
// reading the journal back from disk under the service lock (appends are
// serialized under the same lock, so the read observes whole records only):
// either the records directly after it, each with its WAL checksum, or —
// when compaction has already folded those records into a snapshot — the
// full live state at the last sequence, byte-identical to what a crash
// recovery at this instant would reload. maxRecords caps the records; 0
// means no cap. LastSeq is the latest journaled sequence, which lets the
// follower compute its lag; the caller sets LeaderEpoch.
//
// crc, when non-nil, is the checksum of the follower's own record at after
// (ResumePoint). A follower whose record there differs from this service's,
// or whose after is past this service's last sequence, holds a history this
// one does not: the refusal wraps ErrDiverged and names both sequences. The
// comparison is skipped when this service no longer holds the record (it
// was compacted into a snapshot, or arrived in one).
func (s *Service) TailAfter(after uint64, crc *uint32, maxRecords int) (*api.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil, ErrNotDurable
	}
	diverged := func(mine uint32) error {
		return fmt.Errorf("horizon: follower's record seq %d has crc %08x, this node's %08x (last seq %d): %w",
			after, *crc, mine, s.lastSeq, ErrDiverged)
	}
	switch {
	case after > s.lastSeq:
		return nil, fmt.Errorf("horizon: follower at seq %d is past this node's last seq %d: %w", after, s.lastSeq, ErrDiverged)
	case crc != nil && after == s.lastSeq && s.haveCRC && *crc != s.lastCRC:
		return nil, diverged(s.lastCRC)
	}
	batch := &api.Batch{LastSeq: s.lastSeq}
	if after == s.lastSeq {
		return batch, nil // follower is caught up
	}
	from := after
	if crc != nil && after > 0 {
		from = after - 1 // read the record at after too, to compare
	}
	recs, _, err := wal.ReadLogAfter(filepath.Join(s.dir, LogName), from)
	if err != nil {
		return nil, fmt.Errorf("horizon: read journal tail: %w", err)
	}
	if from < after && len(recs) > 0 && recs[0].Seq == after {
		if mine := wal.Checksum(after, recs[0].Payload); mine != *crc {
			return nil, diverged(mine)
		}
		recs = recs[1:]
	}
	if len(recs) == 0 || recs[0].Seq != after+1 {
		// The records right after the resume point were compacted into a
		// snapshot. Ship the live state instead of the unreachable diff.
		blob, err := s.st.appendJSON(nil)
		if err != nil {
			return nil, fmt.Errorf("horizon: snapshot state: %w", err)
		}
		batch.Snapshot = blob
		batch.SnapshotSeq = s.lastSeq
		return batch, nil
	}
	if maxRecords > 0 && len(recs) > maxRecords {
		recs = recs[:maxRecords]
	}
	batch.Records = make([]api.Record, len(recs))
	for i, rec := range recs {
		batch.Records[i] = api.Record{Seq: rec.Seq, CRC: wal.Checksum(rec.Seq, rec.Payload), Payload: rec.Payload}
	}
	return batch, nil
}

// ApplyReplicated applies one shipped journal record. It returns
// (false, nil) for a record at or before the applied sequence — a
// duplicated delivery, skipped idempotently — and an error for a gap:
// records must arrive in sequence order. On a durable follower the
// record is re-journaled by the apply itself (Submit/Advance journal
// exactly as they do on the primary), and the assigned sequence is
// verified to match the shipped one so a divergent journal is caught
// immediately rather than at the next failover.
func (s *Service) ApplyReplicated(ctx context.Context, rec wal.Record) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Seq <= s.lastSeq {
		return false, nil // duplicate delivery; already applied
	}
	if rec.Seq != s.lastSeq+1 {
		return false, fmt.Errorf("horizon: replication gap: record seq %d after applied seq %d", rec.Seq, s.lastSeq)
	}
	if op, err := s.applyPayloadLocked(ctx, rec.Payload); err != nil {
		return false, fmt.Errorf("horizon: replicated record seq %d (%s): %w", rec.Seq, op.Op, err)
	}
	if s.journal != nil {
		if s.lastSeq != rec.Seq {
			return false, fmt.Errorf("horizon: journal diverged: applied record seq %d journaled as %d", rec.Seq, s.lastSeq)
		}
	} else {
		s.lastSeq = rec.Seq
	}
	s.lastCRC, s.haveCRC = wal.Checksum(rec.Seq, rec.Payload), true
	return true, nil
}

// InstallSnapshot replaces the service state with a shipped full-state
// snapshot — the path a fresh or far-behind follower takes when the
// primary has compacted the records it would otherwise replay. The
// payload enters through decodeState, the door Recover's snapshot takes,
// before it is adopted, and on a durable follower it is persisted as the
// local snapshot with the journal reset, so a restart recovers to the
// same sequence. A snapshot that does not advance past the applied
// sequence is rejected.
func (s *Service) InstallSnapshot(seq uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.lastSeq {
		return fmt.Errorf("horizon: snapshot seq %d does not advance past applied seq %d", seq, s.lastSeq)
	}
	// Admit the value before anything else happens: a refused snapshot
	// must leave the live state and the data directory untouched.
	st, err := s.decodeState(blob)
	if err != nil {
		return fmt.Errorf("horizon: snapshot seq %d: %w", seq, err)
	}
	if s.journal != nil {
		// Persist before adopting: if the snapshot cannot be made durable
		// the install fails whole, so a restart never recovers a journal
		// that contradicts the in-memory state.
		if err := wal.WriteSnapshot(s.dir, seq, blob); err != nil {
			s.recovery.SnapshotFailures++
			return fmt.Errorf("horizon: persist installed snapshot: %w", err)
		}
		if err := s.journal.Reset(); err != nil {
			return fmt.Errorf("horizon: reset journal after snapshot install: %w", err)
		}
		s.journal.EnsureSeqAbove(seq)
	}
	s.st = st
	s.lastSeq, s.haveCRC = seq, false
	s.recovery.SnapshotLoaded = true
	return nil
}
