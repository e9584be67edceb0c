// Package horizon implements an epoch-based rolling-horizon scheduling
// service on top of the paper's two-phase scheduler. The paper assumes the
// whole reservation batch is known before the cycle starts (§2.1); a
// production system instead sees a *stream* of reservations arriving ahead
// of their start times, and must keep a committed schedule live while new
// requests land.
//
// The service maintains a commit horizon H. Every transfer record whose
// start time and every residency record whose load time falls before H is
// frozen: committed history the planner may no longer rearrange. Arriving
// reservations accumulate in a pending intake buffer; an epoch closes when
// a configured trigger fires (request count, byte volume, or an arrival
// wall-clock tick), and Advance(T) then runs an incremental plan extension:
//
//   - split the committed schedule at the new horizon T — records before T
//     freeze in place, records at or after T are torn up and their requests
//     re-enter the planning pool together with the pending intake;
//   - re-run IVS per file over only the un-frozen requests, with the frozen
//     residencies staying in the candidate pool as free cache-extension
//     sources (their committed span is sunk cost, so serving a new request
//     from one is priced at the marginal extension alone);
//   - re-run SORP over the integrated result with capacity accounting that
//     includes the frozen occupancy, never selecting a frozen copy as a
//     rescheduling victim.
//
// The last two steps are not this package's code: an epoch close is one call
// to scheduler.Solve — the same two-phase pipeline the batch scheduler runs —
// with the frozen prefixes as its extra argument, followed by the same commit
// predicate (scheduler.Check) against every reservation accepted so far. What
// this package owns is the state around that call: the split, the journal
// and the commit. A reservation whose start time already lies inside the
// frozen window is rejected with ErrLateArrival.
//
// With everything submitted before the first epoch closes (all requests in
// epoch 0, horizon 0), nothing freezes and the epoch close is the one-shot
// scheduler: the result is byte-identical to scheduler.Schedule.
package horizon

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// ErrLateArrival is returned by Submit for a reservation whose start time
// lies inside the frozen window: the schedule up to the commit horizon is
// already executing and cannot absorb it. Callers should surface this to
// the requesting user as a "too late, pick a later start" condition.
var ErrLateArrival = errors.New("horizon: reservation starts inside the frozen window")

// Config parameterizes the service. The three epoch triggers are
// independent; any non-zero one arms, and the epoch is due as soon as the
// first fires. With all three zero the service never signals an epoch
// boundary on its own and the caller decides when to Advance.
type Config struct {
	// Policy is the caching policy for both scheduling phases.
	Policy scheduler.Policy
	// Metric is the SORP victim-selection metric (default SpacePerCost).
	Metric scheduler.HeatMetric
	// EpochRequests closes the epoch after this many pending reservations.
	EpochRequests int
	// EpochBytes closes the epoch once the pending reservations' amortized
	// stream volume (Σ P_i · B_i) reaches this many bytes.
	EpochBytes float64
	// EpochTick closes the epoch when the arrival clock has progressed this
	// far since the last Advance.
	EpochTick simtime.Duration
	// Workers bounds the per-file IVS fan-out and the SORP candidate
	// evaluation inside Advance; 0 means GOMAXPROCS. The committed
	// schedule is byte-identical for every worker count.
	Workers int

	// The remaining fields only apply to durable services (opened with
	// Recover); an in-memory Service from New ignores them.

	// SnapshotEvery compacts the journal with a full-state snapshot
	// every this many committed epochs. 0 means DefaultSnapshotEvery;
	// negative disables snapshots (the journal grows without bound).
	SnapshotEvery int
	// Fsync is the journal flush policy (default wal.FsyncAlways).
	Fsync wal.FsyncPolicy
}

// DefaultSnapshotEvery is the journal compaction period in epochs.
const DefaultSnapshotEvery = 4

// Trigger names the condition that closed an epoch.
type Trigger string

const (
	TriggerRequests Trigger = "requests"
	TriggerBytes    Trigger = "bytes"
	TriggerTick     Trigger = "tick"
)

// Ack acknowledges one accepted reservation.
type Ack struct {
	// Pending is the intake buffer size after this submission.
	Pending int
	// PendingBytes is the buffered amortized stream volume in bytes.
	PendingBytes float64
	// EpochDue reports that a configured trigger has fired; the caller
	// should Advance to commit the buffered work.
	EpochDue bool
	// Trigger names the condition that fired (empty when !EpochDue).
	Trigger Trigger
}

// Service is the rolling-horizon scheduler. All methods are safe for
// concurrent use.
type Service struct {
	mu  sync.Mutex
	m   *cost.Model
	cfg Config

	st state // everything that changes; guarded by mu

	// checker is the bar's working memory, kept from one commit to the next
	// (see check); guarded by mu. A field, not a sync.Pool: a collection
	// empties a pool, and the map is the size of the whole history.
	checker scheduler.Checker

	// Durability (nil/zero for in-memory services; see durable.go).
	journal  *wal.Log
	dir      string
	lastSeq  uint64
	recovery api.RecoveryStats
	snap     []byte // the last snapshot's encoding; its array is the next one's buffer
	rec      []byte // the journal record being appended, reused from one to the next
}

// state is the full mutable state of a Service, declared once: the live
// value under Service.mu is also the snapshot and replication payload. Every
// field but planned is exported and tagged, because encoding/json silently
// drops the rest; planned is carried by the "pending" list, the tail it
// leaves. The cost model and config are not state, supplied again at Recover.
//
// Accepted holds every reservation once: Committed serves Accepted[:planned],
// and the tail Accepted[planned:] is the pending intake buffer. Committed is
// never modified once installed and Accepted only grows by append, so a copy
// of the struct stays a consistent reading after the lock is released.
//
// A Committed schedule gets into a state in two ways only: extend solved it
// and check accepted it, or decodeState admitted the state from a snapshot
// payload and check accepted it.
type state struct {
	Horizon      simtime.Time       `json:"horizon"`     // commit horizon H
	Epoch        int                `json:"epoch"`       // epochs committed so far
	Clock        simtime.Time       `json:"clock"`       // latest arrival instant seen
	EpochClock   simtime.Time       `json:"epoch_clock"` // arrival clock at the last Advance
	Cost         units.Money        `json:"cost"`        // Ψ(S) of Committed
	Committed    *schedule.Schedule `json:"committed"`
	Accepted     workload.Set       `json:"accepted"` // every reservation ever accepted
	planned      int                // how many of Accepted Committed serves
	PendingBytes float64            `json:"pending_bytes"` // stream bytes of Accepted[planned:]
}

// New returns a service with an empty committed schedule and horizon 0.
func New(m *cost.Model, cfg Config) *Service {
	return &Service{m: m, cfg: cfg, st: state{Committed: schedule.New()}}
}

// Plan returns one consistent reading of what the service has published,
// taken under a single lock acquisition so its fields always belong to the
// same epoch: the committed schedule with the horizon, epoch and cost it was
// committed under, and the intake buffer size at that instant — the GET
// /v1/plan body. The schedule is the live committed one, not a copy. A
// committed schedule is never modified — every epoch installs a new one — so
// it may be read and encoded freely, but must not be written; Committed
// returns a copy to own.
func (s *Service) Plan() api.PlanResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return api.PlanResponse{Schedule: s.st.Committed, PlanState: api.PlanState{
		Horizon: s.st.Horizon,
		Epoch:   s.st.Epoch,
		Pending: len(s.st.Accepted) - s.st.planned,
		Cost:    s.st.Cost,
	}}
}

// Horizon returns the current commit horizon.
func (s *Service) Horizon() simtime.Time { return s.Plan().Horizon }

// Epoch returns the number of epochs committed so far.
func (s *Service) Epoch() int { return s.Plan().Epoch }

// Pending returns the intake buffer size.
func (s *Service) Pending() int { return s.Plan().Pending }

// Cost returns Ψ(S) of the committed schedule.
func (s *Service) Cost() units.Money { return s.Plan().Cost }

// Committed returns a deep copy of the committed schedule.
func (s *Service) Committed() *schedule.Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Committed.Clone()
}

// Accepted returns a copy of every reservation accepted so far, planned or
// pending.
func (s *Service) Accepted() workload.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(workload.Set(nil), s.st.Accepted...)
}

// Submit offers one reservation arriving at instant at. It is rejected
// with ErrLateArrival when its start time lies before the commit horizon;
// otherwise it is buffered and the returned Ack reports whether an epoch
// trigger has fired.
func (s *Service) Submit(at simtime.Time, r workload.Request) (Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(at, r)
}

// submitLocked is Submit's body; callers hold s.mu. It is the single
// intake path: live submissions, crash-recovery replay and the
// replication applier all come through here, which is what makes replay
// deterministic.
func (s *Service) submitLocked(at simtime.Time, r workload.Request) (Ack, error) {
	if err := s.known(r); err != nil {
		return Ack{}, fmt.Errorf("horizon: %w", err)
	}
	if r.Start < s.st.Horizon {
		return Ack{}, fmt.Errorf("%w: start %v is before commit horizon %v",
			ErrLateArrival, r.Start, s.st.Horizon)
	}
	// Journal before mutating: a reservation is acknowledged only once it
	// is on the log (per the configured fsync policy). A failed append
	// leaves the in-memory state untouched.
	if s.journal != nil {
		if err := s.journalOp(walOp{Op: opSubmit, At: at, User: r.User, Video: r.Video, Start: r.Start}); err != nil {
			return Ack{}, fmt.Errorf("horizon: journal submit: %w", err)
		}
	}
	st := &s.st
	st.Clock = simtime.Max(st.Clock, at)
	st.Accepted = append(st.Accepted, r)
	st.PendingBytes += s.m.Catalog().Video(r.Video).StreamBytes().Float()

	ack := Ack{Pending: len(st.Accepted) - st.planned, PendingBytes: st.PendingBytes}
	switch {
	case s.cfg.EpochRequests > 0 && ack.Pending >= s.cfg.EpochRequests:
		ack.EpochDue, ack.Trigger = true, TriggerRequests
	case s.cfg.EpochBytes > 0 && st.PendingBytes >= s.cfg.EpochBytes:
		ack.EpochDue, ack.Trigger = true, TriggerBytes
	case s.cfg.EpochTick > 0 && st.Clock.Sub(st.EpochClock) >= s.cfg.EpochTick:
		ack.EpochDue, ack.Trigger = true, TriggerTick
	}
	return ack, nil
}

// known reports whether a reservation names a video of the catalog and a user
// of the topology, at a non-negative start: the part of intake screening that
// depends on the model alone, applied to a live submission and to every
// reservation of a decoded snapshot.
func (s *Service) known(r workload.Request) error {
	return r.Validate(s.m.Book().Topology(), s.m.Catalog())
}

// Advance closes the current epoch: it moves the commit horizon to the
// given time (which may not move backwards), freezes every record before
// it, and re-plans the un-frozen window plus the pending intake. On
// success the committed schedule reflects every accepted reservation and
// is free of storage overflows; on error the previous committed state is
// left untouched.
func (s *Service) Advance(ctx context.Context, to simtime.Time) (*api.EpochResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceLocked(ctx, to)
}

// AdvanceBehind closes the epoch at the arrival clock less lag, read under the
// same lock the close holds: the close a primary runs itself when a trigger
// fires. A target not past the commit horizon closes nothing, and the result
// is nil.
func (s *Service) AdvanceBehind(ctx context.Context, lag simtime.Duration) (*api.EpochResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	to := s.st.Clock.Add(-lag)
	if to <= s.st.Horizon {
		return nil, nil
	}
	return s.advanceLocked(ctx, to)
}

// advanceLocked is Advance's body; callers hold s.mu. Like submitLocked
// it is shared by live traffic, recovery replay and replication apply.
// The epoch is planned from one state value and committed by installing
// the next: nothing in between writes the service.
func (s *Service) advanceLocked(ctx context.Context, to simtime.Time) (*api.EpochResult, error) {
	if to < s.st.Horizon {
		return nil, fmt.Errorf("horizon: cannot move horizon backwards from %v to %v", s.st.Horizon, to)
	}
	next, res, err := s.extend(ctx, s.st, to)
	if err != nil {
		return nil, fmt.Errorf("horizon: epoch %d: %w", s.st.Epoch, err)
	}

	// Journal the epoch boundary only after the plan extension succeeded:
	// replaying the log re-runs exactly the Advances that committed, and a
	// failed append aborts the epoch with the previous state intact.
	if s.journal != nil {
		if err := s.journalOp(walOp{Op: opAdvance, To: to}); err != nil {
			return nil, fmt.Errorf("horizon: journal advance: %w", err)
		}
	}
	s.st = next
	s.maybeSnapshotLocked()
	return res, nil
}

// extend plans the epoch that moves st's horizon to the given time and
// returns the state to commit. It reads st, the model and the config and
// writes nothing: split the committed schedule, solve the un-frozen
// requests plus the pending intake on top of the frozen prefixes, and keep
// the result only if the next state passes check — the commit predicate
// against every reservation accepted so far.
func (s *Service) extend(ctx context.Context, st state, to simtime.Time) (state, *api.EpochResult, error) {
	frozen, reqs, res, err := st.split(to)
	if err != nil {
		return state{}, nil, err
	}
	out, err := scheduler.Solve(ctx, s.m, reqs, frozen,
		scheduler.Config{Policy: s.cfg.Policy, Metric: s.cfg.Metric, Workers: s.cfg.Workers})
	if err != nil {
		return state{}, nil, err
	}
	next := state{
		Horizon:    to,
		Epoch:      st.Epoch + 1,
		Clock:      st.Clock,
		EpochClock: simtime.Max(st.Clock, to),
		Cost:       out.FinalCost,
		Committed:  out.Schedule,
		Accepted:   st.Accepted,
		planned:    len(st.Accepted),
	}
	if err := s.check(&next); err != nil {
		return state{}, nil, err
	}
	res.Overflows = out.Overflows
	res.Victims = out.Victims
	res.Resolution = out.Resolution
	res.Cost = out.FinalCost
	return next, res, nil
}

// check is the bar: the one predicate that decides whether a service may hold
// a state's committed schedule. It is scheduler.Check against what the
// schedule must serve, Accepted[:planned]: the pending intake is planned only
// at the next Advance. An epoch commit (extend), a decoded snapshot
// (decodeState) and promotion (VerifyCommitted) all ask here, so whatever a
// commit accepted, recovery and failover accept: it is the same call on the
// same arguments. Callers hold s.mu, or own s outright (Recover before it
// returns), which is what makes s.checker theirs.
func (s *Service) check(st *state) error {
	return s.checker.Check(s.m.Book().Topology(), s.m.Catalog(), st.Committed, st.Accepted[:st.planned]).Err()
}

// split divides the committed schedule at the new horizon: per video, the
// prefix that freezes and the requests to plan — the torn-up deliveries'
// plus the pending intake, in chronological order. The returned result
// carries the split's counts.
func (st *state) split(to simtime.Time) (map[media.VideoID]*schedule.FileSchedule, map[media.VideoID][]workload.Request, *api.EpochResult, error) {
	frozen := make(map[media.VideoID]*schedule.FileSchedule)
	reqs := make(map[media.VideoID][]workload.Request)
	res := &api.EpochResult{Epoch: st.Epoch, Horizon: to, Admitted: len(st.Accepted) - st.planned}
	for _, vid := range st.Committed.VideoIDs() {
		pre, replan, err := splitFile(st.Committed.File(vid), to)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(pre.Deliveries) > 0 || len(pre.Residencies) > 0 {
			frozen[vid] = pre
			res.FrozenDeliveries += len(pre.Deliveries)
			res.FrozenResidencies += len(pre.Residencies)
		}
		if len(replan) > 0 {
			reqs[vid] = replan
			res.Replanned += len(replan)
		}
	}
	for _, r := range st.Accepted[st.planned:] {
		reqs[r.Video] = append(reqs[r.Video], r)
	}
	for _, rs := range reqs {
		workload.SortChronological(rs)
	}
	return frozen, reqs, res, nil
}

// splitFile divides one committed file schedule at the horizon. Deliveries
// starting before it and residencies loaded before it freeze; the rest are
// discarded and their requests returned for re-planning. The split is
// closed under references — a frozen residency's feed starts at its load
// time and is therefore frozen, and a frozen delivery's source residency
// loads no later than the delivery starts and is therefore frozen — so the
// frozen records form a stable index prefix. A frozen residency keeps only
// its frozen readers: its span is clamped to the latest of them (the
// discarded future readers re-enter the pool, where the copy remains
// available as a free extension source). Pre-placed copies keep their
// planned span.
//
// The prefix is handed on by reference. A committed schedule is never
// modified once installed, and nothing downstream writes through a frozen
// prefix (ivs.ScheduleFile copies what it extends), so the frozen
// deliveries are the committed slice itself, capped at the split, and so are
// the frozen residencies unless one is clamped: only a copy read at or after
// the horizon is, and then the residencies are copied.
func splitFile(fs *schedule.FileSchedule, horizon simtime.Time) (*schedule.FileSchedule, []workload.Request, error) {
	fd := 0
	for fd < len(fs.Deliveries) && fs.Deliveries[fd].Start < horizon {
		fd++
	}
	fr := 0
	for fr < len(fs.Residencies) && fs.Residencies[fr].Load < horizon {
		fr++
	}
	// The committed schedule is a concatenation of chronologically sorted
	// epoch batches, each entirely at or after the horizon its predecessor
	// froze at, so the frozen records must form a prefix. Verify rather
	// than assume: a violation means the commit invariant broke.
	for i := fd; i < len(fs.Deliveries); i++ {
		if fs.Deliveries[i].Start < horizon {
			return nil, nil, fmt.Errorf("video %d delivery %d starts at %v behind frozen prefix ending before %v",
				fs.Video, i, fs.Deliveries[i].Start, horizon)
		}
	}
	for j := fr; j < len(fs.Residencies); j++ {
		if fs.Residencies[j].Load < horizon {
			return nil, nil, fmt.Errorf("video %d residency %d loads at %v behind frozen prefix ending before %v",
				fs.Video, j, fs.Residencies[j].Load, horizon)
		}
	}

	pre := &schedule.FileSchedule{
		Video:       fs.Video,
		Deliveries:  fs.Deliveries[:fd:fd],
		Residencies: fs.Residencies[:fr:fr],
	}
	// A copy held into the horizon falls back to its load and is pushed out
	// again by its frozen readers. No other copy moves: every reader starts
	// inside its copy's span.
	var clamped []schedule.Residency
	for j, c := range pre.Residencies {
		if c.FedBy != schedule.PrePlacedFeed && c.FedBy >= fd {
			return nil, nil, fmt.Errorf("video %d frozen residency %d fed by un-frozen delivery %d",
				fs.Video, j, c.FedBy)
		}
		if c.FedBy != schedule.PrePlacedFeed && c.LastService >= horizon {
			if clamped == nil {
				clamped = slices.Clone(pre.Residencies)
			}
			clamped[j].LastService = c.Load
		}
	}
	for i, d := range pre.Deliveries {
		switch sr := d.SourceResidency; {
		case sr == schedule.NoResidency:
		case sr >= fr:
			return nil, nil, fmt.Errorf("video %d frozen delivery %d draws from un-frozen residency %d", fs.Video, i, sr)
		case clamped != nil:
			clamped[sr].LastService = simtime.Max(clamped[sr].LastService, d.Start)
		}
	}
	if clamped != nil {
		pre.Residencies = clamped
	}

	var replan []workload.Request
	for i := fd; i < len(fs.Deliveries); i++ {
		d := fs.Deliveries[i]
		replan = append(replan, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
	}
	return pre, replan, nil
}
