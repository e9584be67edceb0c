package horizon

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// Durability: a service opened with Recover journals every Submit and
// Advance through a write-ahead log (internal/wal) in its data directory
// and periodically compacts the log into a full-state snapshot. Crash
// recovery loads the snapshot through decodeState, replays the log's tail —
// re-running the replayed epochs through the same deterministic planner and
// the same commit predicate — and refuses to serve a state an epoch commit
// would not have produced. The layout of a data directory:
//
//	<dir>/wal.log    append-only operation journal
//	<dir>/snapshot   atomically-replaced full state (may be absent)

// LogName is the journal's file name inside a data directory.
const LogName = "wal.log"

// Journal operation kinds.
const (
	opSubmit  = "submit"
	opAdvance = "advance"
)

// walOp is one journaled operation. Submit records carry the reservation
// and its arrival instant; advance records carry the new horizon. Replay
// re-executes them in order, which reproduces the committed state because
// both operations are deterministic functions of the state they act on.
type walOp struct {
	Op    string          `json:"op"`
	At    simtime.Time    `json:"at,omitempty"`
	User  topology.UserID `json:"user,omitempty"`
	Video media.VideoID   `json:"video,omitempty"`
	Start simtime.Time    `json:"start,omitempty"`
	To    simtime.Time    `json:"to,omitempty"`
}

// Recover opens a durable rolling-horizon service on dir, creating the
// directory on first use. Prior state is restored from the snapshot plus
// a deterministic replay of the journaled operations after it, and is held
// to exactly what a live epoch commit is held to: the snapshot enters
// through decodeState (self-consistent, and its committed schedule passes
// scheduler.Check against the reservations it claims to serve), and every
// replayed epoch is checked by extend like any other. So what the live path
// committed and acknowledged, Recover accepts, and a checksum-valid file that
// decodes or replays into anything else is treated as damage, not served.
// The model and config must describe the same infrastructure and policies
// the journal was written under.
func Recover(dir string, m *cost.Model, cfg Config) (*Service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("horizon: data dir: %w", err)
	}
	s := New(m, cfg)

	snapSeq, blob, haveSnap, err := wal.ReadSnapshot(dir)
	if err != nil {
		return nil, fmt.Errorf("horizon: recover %s: %w", dir, err)
	}
	if haveSnap {
		if s.st, err = s.decodeState(blob); err != nil {
			return nil, fmt.Errorf("horizon: recover %s: snapshot seq %d: %w", dir, snapSeq, err)
		}
		s.recovery.SnapshotLoaded = true
	}

	log, recs, tail, err := wal.Open(filepath.Join(dir, LogName), wal.Options{Fsync: s.cfg.Fsync})
	if err != nil {
		return nil, fmt.Errorf("horizon: recover %s: %w", dir, err)
	}
	s.recovery.TailTruncated = tail == wal.TailTruncated
	if s.recovery.TailTruncated {
		s.recovery.TailTruncations++
	}

	// Replay the journal tail through the same applyPayloadLocked entry
	// point the replication applier uses. The journal is attached only
	// afterwards, so replayed operations are not re-journaled and never
	// snapshot.
	s.mu.Lock()
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue // compacted into the snapshot; left by a crash before Reset
		}
		op, err := s.applyPayloadLocked(context.Background(), rec.Payload)
		switch op.Op {
		case opSubmit:
			s.recovery.ReplayedSubmits++
		case opAdvance:
			s.recovery.ReplayedAdvances++
		}
		if err != nil {
			s.mu.Unlock()
			log.Close()
			return nil, fmt.Errorf("horizon: recover %s: replay record seq %d: %w", dir, rec.Seq, err)
		}
	}
	s.recovery.Recovered = haveSnap || s.recovery.ReplayedSubmits > 0 || s.recovery.ReplayedAdvances > 0
	s.mu.Unlock()

	log.EnsureSeqAbove(snapSeq)
	if len(recs) > 0 {
		log.EnsureSeqAbove(recs[len(recs)-1].Seq)
	}
	s.lastSeq = log.NextSeq() - 1
	if n := len(recs); n > 0 && recs[n-1].Seq == s.lastSeq {
		s.lastCRC, s.haveCRC = wal.Checksum(s.lastSeq, recs[n-1].Payload), true
	}
	s.journal = log
	s.dir = dir
	return s, nil
}

// Recovery returns what Recover reconstructed (zero for in-memory
// services) plus the current snapshot-failure count.
func (s *Service) Recovery() api.RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Durable reports whether the service journals to disk.
func (s *Service) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal != nil
}

// Close flushes and closes the journal. The service must not be used
// afterwards. Closing an in-memory service is a no-op.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// applyPayloadLocked decodes one journal payload and re-executes it
// through the ordinary locked intake paths. It is the single replay
// entry point: crash recovery (Recover) and the replication applier
// (ApplyReplicated) both feed records through it, so a follower's state
// is reconstructed by exactly the machinery the primary's recovery is
// already proven on. Callers hold s.mu. The decoded operation is
// returned even on failure so callers can attribute the error.
func (s *Service) applyPayloadLocked(ctx context.Context, payload []byte) (walOp, error) {
	var op walOp
	if err := api.DecodeStrict(payload, &op); err != nil {
		return op, fmt.Errorf("undecodable operation: %w", err)
	}
	var err error
	switch op.Op {
	case opSubmit:
		_, err = s.submitLocked(op.At, workload.Request{User: op.User, Video: op.Video, Start: op.Start})
	case opAdvance:
		_, err = s.advanceLocked(ctx, op.To)
	default:
		err = fmt.Errorf("unknown op %q", op.Op)
	}
	if err != nil {
		return op, fmt.Errorf("apply %s: %w", op.Op, err)
	}
	return op, nil
}

// VerifyCommitted re-applies the commit predicate to the live committed
// schedule. Failover promotion calls it before a caught-up follower starts
// accepting traffic; every state a service holds has already passed the same
// check on its way in, so this is a cheap re-check, not a second bar.
func (s *Service) VerifyCommitted() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.check(&s.st)
}

// journalOp appends one operation record; callers hold s.mu, which is what
// makes the one record buffer theirs.
func (s *Service) journalOp(op walOp) error {
	s.rec = op.appendJSON(s.rec[:0])
	seq, err := s.journal.Append(s.rec)
	if err != nil {
		return err
	}
	s.lastSeq, s.lastCRC, s.haveCRC = seq, wal.Checksum(seq, s.rec), true
	return nil
}

// appendJSON appends json.Marshal(op), byte for byte: the fields in
// declaration order, a zero one left out as omitempty leaves it out. Op is
// one of the op constants and needs no escaping. Replay still decodes with
// encoding/json, so the struct tags remain the format's definition and this
// its one writer.
func (op walOp) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"op":"`...)
	dst = append(dst, op.Op...)
	dst = append(dst, '"')
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"at":`, int64(op.At)},
		{`,"user":`, int64(op.User)},
		{`,"video":`, int64(op.Video)},
		{`,"start":`, int64(op.Start)},
		{`,"to":`, int64(op.To)},
	} {
		if f.v != 0 {
			dst = strconv.AppendInt(append(dst, f.key...), f.v, 10)
		}
	}
	return append(dst, '}')
}

// maybeSnapshotLocked compacts the journal after an epoch commit when the
// snapshot period has elapsed. A snapshot failure is recorded but not
// fatal: the un-compacted journal still reaches the same state by replay.
func (s *Service) maybeSnapshotLocked() {
	if s.journal == nil {
		return
	}
	every := s.cfg.SnapshotEvery
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	if every < 0 || s.st.Epoch%every != 0 {
		return
	}
	// The payload is appended to the last one's buffer, which doubles only
	// when a state no longer fits in it: a shard whose history grows a
	// little per epoch reallocates it once per doubling, not at every
	// snapshot.
	blob, err := s.st.appendJSON(s.snap[:0])
	if err == nil {
		s.snap = blob
		err = wal.WriteSnapshot(s.dir, s.lastSeq, blob)
	}
	if err == nil {
		err = s.journal.Reset()
	}
	if err != nil {
		s.recovery.SnapshotFailures++
	}
}

// appendJSON appends the snapshot payload to dst: json.Marshal of the tagged
// fields, byte for byte, with the intake buffer as "pending". A NaN or
// infinite Cost or PendingBytes is an error, as it is to json.Marshal, and
// returns dst unextended. Recover and InstallSnapshot decode the payload with
// encoding/json, so the struct tags remain the format's definition.
func (st *state) appendJSON(dst []byte) ([]byte, error) {
	out := strconv.AppendInt(append(dst, `{"horizon":`...), int64(st.Horizon), 10)
	out = strconv.AppendInt(append(out, `,"epoch":`...), int64(st.Epoch), 10)
	out = strconv.AppendInt(append(out, `,"clock":`...), int64(st.Clock), 10)
	out = strconv.AppendInt(append(out, `,"epoch_clock":`...), int64(st.EpochClock), 10)
	out, err := appendFloat(append(out, `,"cost":`...), "cost", float64(st.Cost))
	if err != nil {
		return dst, err
	}
	out = st.Committed.AppendJSON(append(out, `,"committed":`...))
	out = st.Accepted.AppendJSON(append(out, `,"accepted":`...))
	pending := st.Accepted[st.planned:]
	if len(pending) == 0 {
		pending = nil // an emptied buffer has always been written null
	}
	out = pending.AppendJSON(append(out, `,"pending":`...))
	if out, err = appendFloat(append(out, `,"pending_bytes":`...), "pending_bytes", st.PendingBytes); err != nil {
		return dst, err
	}
	return append(out, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent ("1e-7", not "1e-07"). JSON has no NaN
// or infinity, so those are an error naming the field.
func appendFloat(dst []byte, field string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("%s is %v, which JSON cannot carry", field, f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// decodeState is the one door by which a snapshot payload — read from disk by
// Recover or shipped by a primary to InstallSnapshot — becomes a state. A
// checksum says the bytes are the ones written; the door establishes that they
// decode to a state this service could have reached, one refusal per way they
// could not, and never panics, whatever the bytes. Of the service it reads
// the model and works in the bar's kept memory (check), nothing else.
func (s *Service) decodeState(blob []byte) (state, error) {
	var st struct {
		state
		Pending workload.Set `json:"pending"` // sets planned; not kept
	}
	if err := api.DecodeStrict(blob, &st); err != nil {
		return state{}, err
	}
	if st.Committed == nil {
		st.Committed = schedule.New()
	}
	if st.Epoch < 0 || st.Horizon < 0 {
		return state{}, fmt.Errorf("negative epoch %d or horizon %v", st.Epoch, st.Horizon)
	}
	if st.planned = len(st.Accepted) - len(st.Pending); st.planned < 0 || !slices.Equal(st.Pending, st.Accepted[st.planned:]) {
		return state{}, fmt.Errorf("the %d pending reservations are not the tail of the %d accepted", len(st.Pending), len(st.Accepted))
	}
	var pendingBytes float64 // in order from zero, as submitLocked sums it: bit-exact
	for i, r := range st.Accepted {
		if err := s.known(r); err != nil {
			return state{}, fmt.Errorf("accepted reservation %d names %w", i, err)
		}
		if i < st.planned {
			continue
		}
		if r.Start < st.Horizon {
			return state{}, fmt.Errorf("pending reservation %d starts at %v, before the commit horizon %v", i-st.planned, r.Start, st.Horizon)
		}
		pendingBytes += s.m.Catalog().Video(r.Video).StreamBytes().Float()
	}
	if pendingBytes != st.PendingBytes {
		return state{}, fmt.Errorf("pending_bytes %v is not the %v the %d pending reservations stream", st.PendingBytes, pendingBytes, len(st.Pending))
	}
	if err := s.check(&st.state); err != nil {
		return state{}, err
	}
	// scheduler.Solve stores Ψ as this very sum, so the comparison is exact.
	if c := s.m.ScheduleCost(st.Committed); st.Cost != c {
		return state{}, fmt.Errorf("cost %v is not %v, what the committed schedule costs", float64(st.Cost), float64(c))
	}
	return st.state, nil
}
