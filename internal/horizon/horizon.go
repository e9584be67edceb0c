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
// Per-file IVS inside an epoch fans out over a bounded worker pool:
// individual file schedules are independent until SORP integration, which
// is exactly the paper's phase boundary. A reservation whose start time
// already lies inside the frozen window is rejected with ErrLateArrival.
//
// With everything submitted before the first epoch closes (all requests in
// epoch 0, horizon 0), nothing freezes and the pipeline degenerates to the
// one-shot scheduler: the incremental result is byte-identical to
// scheduler.Schedule.
package horizon

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
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
	Policy ivs.Policy
	// Metric is the SORP victim-selection metric (default SpacePerCost).
	Metric sorp.HeatMetric
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
	// FsyncInterval bounds the sync lag under wal.FsyncInterval.
	FsyncInterval time.Duration
}

// DefaultSnapshotEvery is the journal compaction period in epochs.
const DefaultSnapshotEvery = 4

// Trigger names the condition that closed an epoch.
type Trigger string

const (
	TriggerNone     Trigger = ""
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

// EpochResult reports one Advance.
type EpochResult struct {
	// Epoch is the 0-based index of the epoch just committed.
	Epoch int `json:"epoch"`
	// Horizon is the new commit horizon.
	Horizon simtime.Time `json:"horizon"`
	// Admitted counts the pending reservations planned this epoch.
	Admitted int `json:"admitted"`
	// Replanned counts previously committed requests that were still ahead
	// of the new horizon and were torn up and rescheduled.
	Replanned int `json:"replanned"`
	// FrozenDeliveries and FrozenResidencies count the records carried
	// through untouched.
	FrozenDeliveries  int `json:"frozen_deliveries"`
	FrozenResidencies int `json:"frozen_residencies"`
	// Overflows is the number of storage overflows detected when the
	// incremental per-file schedules were integrated.
	Overflows int `json:"overflows"`
	// Victims lists the SORP rescheduling decisions in order.
	Victims []sorp.Victim `json:"victims,omitempty"`
	// Resolution counts the SORP run's work: iterations, pairs rescheduled
	// afresh and pairs reused from an earlier iteration (all zero when the
	// epoch integrated without overflow).
	Resolution sorp.Work `json:"resolution"`
	// Cost is Ψ(S) of the committed schedule after this epoch.
	Cost units.Money `json:"cost"`
}

// Service is the rolling-horizon scheduler. All methods are safe for
// concurrent use.
type Service struct {
	mu  sync.Mutex
	m   *cost.Model
	cfg Config

	horizon    simtime.Time // commit horizon H
	epoch      int          // epochs committed so far
	clock      simtime.Time // latest arrival instant seen
	epochClock simtime.Time // arrival clock at the last Advance

	committed    *schedule.Schedule
	cost         units.Money
	accepted     workload.Set // every reservation ever accepted
	pending      workload.Set // accepted but not yet planned
	pendingBytes float64

	// Durability (nil/zero for in-memory services; see durable.go).
	journal  *wal.Log
	dir      string
	lastSeq  uint64
	recovery RecoveryStats
}

// New returns a service with an empty committed schedule and horizon 0.
func New(m *cost.Model, cfg Config) *Service {
	if cfg.Metric == 0 {
		cfg.Metric = sorp.SpacePerCost
	}
	return &Service{m: m, cfg: cfg, committed: schedule.New()}
}

// Horizon returns the current commit horizon.
func (s *Service) Horizon() simtime.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.horizon
}

// Epoch returns the number of epochs committed so far.
func (s *Service) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Pending returns the intake buffer size.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Cost returns Ψ(S) of the committed schedule.
func (s *Service) Cost() units.Money {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

// Committed returns a deep copy of the committed schedule.
func (s *Service) Committed() *schedule.Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed.Clone()
}

// Accepted returns a copy of every reservation accepted so far, planned or
// pending.
func (s *Service) Accepted() workload.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(workload.Set(nil), s.accepted...)
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
	if int(r.Video) < 0 || int(r.Video) >= s.m.Catalog().Len() {
		return Ack{}, fmt.Errorf("horizon: unknown video %d", r.Video)
	}
	if int(r.User) < 0 || int(r.User) >= s.m.Book().Topology().NumUsers() {
		return Ack{}, fmt.Errorf("horizon: unknown user %d", r.User)
	}
	if r.Start < s.horizon {
		return Ack{}, fmt.Errorf("%w: start %v is before commit horizon %v",
			ErrLateArrival, r.Start, s.horizon)
	}
	// Journal before mutating: a reservation is acknowledged only once it
	// is on the log (per the configured fsync policy). A failed append
	// leaves the in-memory state untouched.
	if s.journal != nil {
		if err := s.journalOp(walOp{Op: opSubmit, At: at, User: r.User, Video: r.Video, Start: r.Start}); err != nil {
			return Ack{}, fmt.Errorf("horizon: journal submit: %w", err)
		}
	}
	s.clock = simtime.Max(s.clock, at)
	s.pending = append(s.pending, r)
	s.accepted = append(s.accepted, r)
	s.pendingBytes += s.m.Catalog().Video(r.Video).StreamBytes().Float()

	ack := Ack{Pending: len(s.pending), PendingBytes: s.pendingBytes}
	switch {
	case s.cfg.EpochRequests > 0 && len(s.pending) >= s.cfg.EpochRequests:
		ack.EpochDue, ack.Trigger = true, TriggerRequests
	case s.cfg.EpochBytes > 0 && s.pendingBytes >= s.cfg.EpochBytes:
		ack.EpochDue, ack.Trigger = true, TriggerBytes
	case s.cfg.EpochTick > 0 && s.clock.Sub(s.epochClock) >= s.cfg.EpochTick:
		ack.EpochDue, ack.Trigger = true, TriggerTick
	}
	return ack, nil
}

// Advance closes the current epoch: it moves the commit horizon to the
// given time (which may not move backwards), freezes every record before
// it, and re-plans the un-frozen window plus the pending intake. On
// success the committed schedule reflects every accepted reservation and
// is free of storage overflows; on error the previous committed state is
// left untouched.
func (s *Service) Advance(ctx context.Context, to simtime.Time) (*EpochResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceLocked(ctx, to)
}

// advanceLocked is Advance's body; callers hold s.mu. Like submitLocked
// it is shared by live traffic, recovery replay and replication apply.
func (s *Service) advanceLocked(ctx context.Context, to simtime.Time) (*EpochResult, error) {
	if to < s.horizon {
		return nil, fmt.Errorf("horizon: cannot move horizon backwards from %v to %v", s.horizon, to)
	}

	// Split the committed schedule at the new horizon.
	frozen := make(map[media.VideoID]*schedule.FileSchedule)
	reqs := make(map[media.VideoID][]workload.Request)
	res := &EpochResult{Epoch: s.epoch, Horizon: to, Admitted: len(s.pending)}
	for _, vid := range s.committed.VideoIDs() {
		pre, replan, err := splitFile(s.committed.File(vid), to)
		if err != nil {
			return nil, err
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
	for _, r := range s.pending {
		reqs[r.Video] = append(reqs[r.Video], r)
	}
	for _, rs := range reqs {
		workload.SortChronological(rs)
	}

	// Every file with frozen history or live requests needs a schedule;
	// files with only frozen history carry their prefix through unchanged.
	videoSet := make(map[media.VideoID]bool, len(frozen)+len(reqs))
	for vid := range frozen {
		videoSet[vid] = true
	}
	for vid := range reqs {
		videoSet[vid] = true
	}
	videos := make([]media.VideoID, 0, len(videoSet))
	for vid := range videoSet {
		videos = append(videos, vid)
	}
	sort.Slice(videos, func(i, j int) bool { return videos[i] < videos[j] })

	next, err := s.phase1(ctx, videos, reqs, frozen)
	if err != nil {
		return nil, err
	}

	ledger := occupancy.FromSchedule(s.m.Book().Topology(), s.m.Catalog(), next)
	res.Overflows = len(ledger.AllOverflows())
	if res.Overflows > 0 {
		rr, err := sorp.ResolveContext(ctx, s.m, next, reqs, sorp.Options{
			Metric:  s.cfg.Metric,
			Policy:  s.cfg.Policy,
			Frozen:  frozen,
			Workers: s.cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("horizon: epoch %d resolution: %w", s.epoch, err)
		}
		next = rr.Schedule
		res.Victims = rr.Victims
		res.Resolution = rr.Work
	}

	if err := next.Validate(s.m.Book().Topology(), s.m.Catalog(), s.accepted); err != nil {
		return nil, fmt.Errorf("horizon: epoch %d produced invalid schedule: %w", s.epoch, err)
	}
	l := occupancy.FromSchedule(s.m.Book().Topology(), s.m.Catalog(), next)
	if ovs := l.AllOverflows(); len(ovs) > 0 {
		return nil, fmt.Errorf("horizon: epoch %d leaves %d overflows unresolved", s.epoch, len(ovs))
	}

	// Journal the epoch boundary only after the plan extension succeeded:
	// replaying the log re-runs exactly the Advances that committed, and a
	// failed append aborts the epoch with the previous state intact.
	if s.journal != nil {
		if err := s.journalOp(walOp{Op: opAdvance, To: to}); err != nil {
			return nil, fmt.Errorf("horizon: journal advance: %w", err)
		}
	}

	res.Cost = s.m.ScheduleCost(next)
	s.committed = next
	s.cost = res.Cost
	s.horizon = to
	s.epoch++
	s.pending = nil
	s.pendingBytes = 0
	s.epochClock = simtime.Max(s.clock, to)
	s.maybeSnapshotLocked()
	return res, nil
}

// phase1 fans the per-file individual scheduling out over the shared
// bounded worker pool (internal/parallel). File schedules are independent
// in phase 1 (unbounded-storage assumption, paper §3.2), so this is safe;
// results are assembled in video order, keeping the outcome byte-identical
// to a sequential run.
func (s *Service) phase1(ctx context.Context, videos []media.VideoID,
	reqs map[media.VideoID][]workload.Request, frozen map[media.VideoID]*schedule.FileSchedule) (*schedule.Schedule, error) {

	fss := make([]*schedule.FileSchedule, len(videos))
	errs := make([]error, len(videos))
	if err := parallel.Do(ctx, s.cfg.Workers, len(videos), func(i int) {
		vid := videos[i]
		fss[i], errs[i] = ivs.ScheduleFile(s.m, vid, reqs[vid], ivs.Options{
			Policy: s.cfg.Policy,
			Frozen: frozen[vid],
		})
	}); err != nil {
		return nil, fmt.Errorf("horizon: epoch %d phase 1 aborted: %w", s.epoch, err)
	}

	next := schedule.New()
	for i, vid := range videos {
		if errs[i] != nil {
			return nil, fmt.Errorf("horizon: epoch %d phase 1 for video %d: %w", s.epoch, vid, errs[i])
		}
		next.Put(fss[i])
	}
	return next, nil
}

// splitFile divides one committed file schedule at the horizon. Deliveries
// starting before it and residencies loaded before it freeze; the rest are
// discarded and their requests returned for re-planning. The split is
// closed under references — a frozen residency's feed starts at its load
// time and is therefore frozen, and a frozen delivery's source residency
// loads no later than the delivery starts and is therefore frozen — so the
// frozen records form a stable index prefix. A frozen residency keeps only
// its frozen readers: its service list is filtered to frozen deliveries
// and its span clamped to the latest surviving service (the discarded
// future readers re-enter the pool, where the copy remains available as a
// free extension source). Pre-placed copies keep their planned span.
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
			return nil, nil, fmt.Errorf("horizon: video %d delivery %d starts at %v behind frozen prefix ending before %v",
				fs.Video, i, fs.Deliveries[i].Start, horizon)
		}
	}
	for j := fr; j < len(fs.Residencies); j++ {
		if fs.Residencies[j].Load < horizon {
			return nil, nil, fmt.Errorf("horizon: video %d residency %d loads at %v behind frozen prefix ending before %v",
				fs.Video, j, fs.Residencies[j].Load, horizon)
		}
	}

	pre := &schedule.FileSchedule{Video: fs.Video}
	for i := 0; i < fd; i++ {
		d := fs.Deliveries[i]
		if d.SourceResidency != schedule.NoResidency && d.SourceResidency >= fr {
			return nil, nil, fmt.Errorf("horizon: video %d frozen delivery %d draws from un-frozen residency %d",
				fs.Video, i, d.SourceResidency)
		}
		d.Route = d.Route.Clone()
		pre.Deliveries = append(pre.Deliveries, d)
	}
	for j := 0; j < fr; j++ {
		c := fs.Residencies[j]
		if c.FedBy != schedule.PrePlacedFeed && c.FedBy >= fd {
			return nil, nil, fmt.Errorf("horizon: video %d frozen residency %d fed by un-frozen delivery %d",
				fs.Video, j, c.FedBy)
		}
		kept := make([]int, 0, len(c.Services))
		last := c.Load
		for _, di := range c.Services {
			if di >= fd {
				continue // future reader: torn up and re-planned
			}
			kept = append(kept, di)
			if fs.Deliveries[di].Start > last {
				last = fs.Deliveries[di].Start
			}
		}
		c.Services = kept
		if c.FedBy != schedule.PrePlacedFeed {
			c.LastService = last
		}
		pre.Residencies = append(pre.Residencies, c)
	}

	var replan []workload.Request
	for i := fd; i < len(fs.Deliveries); i++ {
		d := fs.Deliveries[i]
		replan = append(replan, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
	}
	return pre, replan, nil
}
