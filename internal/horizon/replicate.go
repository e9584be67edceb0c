package horizon

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

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

// ReplicationTail is one shipper round's worth of journal, assembled by
// the primary. Either Records carries the journal records directly after
// the requested sequence, or — when compaction has already folded those
// records into a snapshot — Snapshot carries the full state at
// SnapshotSeq and the follower installs it instead of replaying.
type ReplicationTail struct {
	// Records are journal records in sequence order, all with Seq greater
	// than the requested resume point.
	Records []wal.Record
	// Snapshot, when non-nil, is the full-state payload at SnapshotSeq
	// (the same state layout Recover loads from disk).
	Snapshot    []byte
	SnapshotSeq uint64
	// LastSeq is the primary's latest journaled sequence, letting the
	// follower compute its replication lag.
	LastSeq uint64
}

// AppliedSeq returns the latest journal sequence this service has
// durably applied: on a primary, the last sequence it journaled; on a
// follower, the last replicated record it applied. Shipping resumes
// from the next sequence.
func (s *Service) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// TailAfter assembles the replication records following the given
// sequence, reading the journal back from disk under the service lock
// (appends are serialized under the same lock, so the read observes
// whole records only). maxRecords caps the batch; 0 means no cap. When
// the journal has been compacted past after+1 the full live state is
// returned as a snapshot instead — byte-identical to what a crash
// recovery at this instant would reload.
func (s *Service) TailAfter(after uint64, maxRecords int) (*ReplicationTail, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil, ErrNotDurable
	}
	tail := &ReplicationTail{LastSeq: s.lastSeq}
	if after >= s.lastSeq {
		return tail, nil // follower is caught up
	}
	recs, _, err := wal.ReadLogAfter(filepath.Join(s.dir, LogName), after)
	if err != nil {
		return nil, fmt.Errorf("horizon: read journal tail: %w", err)
	}
	if len(recs) == 0 || recs[0].Seq != after+1 {
		// The records right after the resume point were compacted into a
		// snapshot. Ship the live state instead of the unreachable diff.
		blob, err := s.st.appendJSON(nil)
		if err != nil {
			return nil, fmt.Errorf("horizon: snapshot state: %w", err)
		}
		tail.Snapshot = blob
		tail.SnapshotSeq = s.lastSeq
		return tail, nil
	}
	if maxRecords > 0 && len(recs) > maxRecords {
		recs = recs[:maxRecords]
	}
	tail.Records = recs
	return tail, nil
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
		return fmt.Errorf("horizon: snapshot state: %w", err)
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
	s.lastSeq = seq
	s.recovery.SnapshotLoaded = true
	return nil
}
