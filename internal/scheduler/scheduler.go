// Package scheduler assembles the paper's two-phase Video Scheduler (§3.1):
// phase 1 computes a minimum-cost schedule for every file individually,
// assuming unbounded intermediate storage; phase 2 integrates them, detects
// storage overflows, and resolves them by heat-ranked victim rescheduling.
//
// The pipeline exists once, as Solve, and so does the question "may this
// schedule be committed", as Check. The batch entry points (Run, Schedule)
// and the rolling-horizon service's epoch close (internal/horizon) are both
// Solve followed by Check; they differ only in what they pass as frozen and
// as the served set.
package scheduler

import (
	"context"
	"fmt"
	"slices"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// The pipeline's vocabulary under the scheduler's name, so a caller that
// only drives Solve (internal/horizon) configures it and reads its outcome
// without importing the phases behind it.
type (
	Policy     = ivs.Policy
	HeatMetric = sorp.HeatMetric
)

// Config selects the scheduler's policies.
type Config struct {
	// Policy is the caching policy for both phases (default CacheOnRoute).
	Policy Policy
	// Metric is the victim-selection heat metric for phase 2 (default
	// SpacePerCost, the paper's best performer).
	Metric HeatMetric
	// SkipResolution stops after phase 1, returning the possibly
	// over-committed integrated schedule (used by studies that inspect
	// raw overflows).
	SkipResolution bool
	// SkipValidation makes Schedule return Solve's result without running
	// the commit predicate (the predicate is cheap; this exists for
	// benchmarks isolating pure scheduling time).
	SkipValidation bool
	// Seeds installs pre-placed standing copies per video (strategic
	// replication; see internal/placement). The greedy serves from them at
	// zero marginal storage cost, resolution treats them as immovable, and
	// their committed cost appears in every reported total.
	Seeds map[media.VideoID][]schedule.Residency
}

// Outcome reports a full scheduling run.
type Outcome struct {
	// Schedule is the final service schedule.
	Schedule *schedule.Schedule
	// Phase1Cost is Ψ(S_good): the cost after individual scheduling,
	// before overflow resolution.
	Phase1Cost units.Money
	// FinalCost is Ψ(S_SORP), the cost of the returned schedule.
	FinalCost units.Money
	// Overflows is the number of distinct overflow situations detected
	// when the individual schedules were integrated.
	Overflows int
	// Victims lists the phase-2 rescheduling decisions in order.
	Victims []api.Victim
	// Resolution counts phase 2's work: iterations, pairs rescheduled
	// afresh and pairs reused from an earlier iteration.
	Resolution api.Work
}

// ResolutionDelta returns Ψ(S_SORP) − Ψ(S_good), the cost increase caused
// by storage overflow resolution (§5.5 reports 12% of Ψ(S) on average).
func (o *Outcome) ResolutionDelta() units.Money { return o.FinalCost - o.Phase1Cost }

// Run executes the two-phase scheduler on a request batch.
func Run(m *cost.Model, reqs workload.Set, cfg Config) (*Outcome, error) {
	return Schedule(context.Background(), m, reqs, cfg)
}

// Schedule is Run with cancellation: Solve over the batch grouped by video
// with nothing frozen, then the commit predicate (Check) against the batch.
// A cancelled or timed-out ctx aborts the run promptly with ctx.Err()
// wrapped in the returned error; work done so far is discarded — a partial
// schedule is not a schedule.
func Schedule(ctx context.Context, m *cost.Model, reqs workload.Set, cfg Config) (*Outcome, error) {
	out, err := Solve(ctx, m, reqs.ByVideo(), nil, cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipValidation {
		v := Check(m.Book().Topology(), m.Catalog(), out.Schedule, reqs)
		if cfg.SkipResolution {
			v.Overflows = nil // the raw overflows are what the caller asked to see
		}
		if err := v.Err(); err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
	}
	return out, nil
}

// Rolling is what an epoch close of a rolling horizon hands Solve besides
// the requests to plan: the schedule the close extends, what of it stays, and
// the bar that will judge the outcome. A batch passes nil.
type Rolling struct {
	// Held is the committed schedule the close replaces.
	Held *schedule.Schedule
	// Frozen holds, per video, the immutable prefix of Held that the close
	// keeps, which phase 1 extends and phase 2 never selects a victim from.
	Frozen map[media.VideoID]*schedule.FileSchedule
	// Folds holds, per video, Ψ's fold over the first deliveries of its
	// frozen prefix (cost.Fold), from which each file is priced.
	Folds map[media.VideoID]cost.Fold
	// Bar is the Checker the outcome will be offered to (Checker.Extend from
	// Held). Its kept ledger is moved to the phase-1 schedule and answers
	// phase 2's first question, whether anything overflows.
	Bar *Checker
}

// Solve is the two-phase pipeline, the only one in the repository: the batch
// scheduler and the rolling horizon's epoch close (internal/horizon) are
// both this function. reqs holds, per video, the requests to plan; r is the
// close's Rolling, nil for a batch. A file is scheduled for every video that
// is requested, frozen or seeded, so history and standing copies nobody asks
// for this round still occupy their space and money.
//
// Phase 1 fans the per-file individual scheduling out over the runtime's
// pool (parallel.Do: GOMAXPROCS goroutines). File schedules are independent
// in phase 1 (unbounded-storage assumption, paper §3.2), so this is safe;
// results are merged in video-ID order, keeping the outcome byte-identical
// to a sequential run. The context is checked before every phase-1 file
// dispatch and every phase-2 victim iteration.
//
// A rolling close asks its bar, not a ledger of its own, whether the phase-1
// schedule overflows: it checks the schedule's structure as an extension of
// Held, and moves the bar's kept ledger to it (Checker.follow), which costs
// what the epoch changed. With nothing overflowing, phase 2 has nothing to
// do and is not entered, the phase-1 schedule is the outcome, and the bar
// finds its ledger already there. Otherwise SORP runs as in a batch, and the
// bar follows on from the phase-1 schedule to SORP's. The bar is not asked
// when it holds no ledger yet — the first close of a new, recovered or
// promoted service — nor when the last close's phase-1 schedule overflowed,
// since the next one most likely will too, and following the bar twice
// would cost more than SORP's own ledger: SORP's ledger answers, as in a
// batch, and the first close it finds clean makes the bar asked again. The
// outcome is the same either way. Ψ is priced on from the folds. A close
// that fails after its bar moved moves it back to Held.
//
// Solve does not judge its own result: callers commit only what Check
// accepts against the full set of requests the schedule must serve.
func Solve(ctx context.Context, m *cost.Model, reqs map[media.VideoID][]workload.Request,
	r *Rolling, cfg Config) (*Outcome, error) {

	var frozen map[media.VideoID]*schedule.FileSchedule
	var folds map[media.VideoID]cost.Fold
	if r != nil {
		frozen, folds = r.Frozen, r.Folds
	}
	videos := make([]media.VideoID, 0, len(reqs)+len(frozen))
	for vid := range reqs {
		videos = append(videos, vid)
	}
	for vid := range frozen {
		videos = append(videos, vid)
	}
	for vid, seeds := range cfg.Seeds {
		if len(seeds) > 0 {
			videos = append(videos, vid)
		}
	}
	slices.Sort(videos)
	videos = slices.Compact(videos)

	ws := ivs.TakeWorkspace() // phase 1's and phase 2's storage
	defer ws.Release()
	s := schedule.New()
	fss := make([]*schedule.FileSchedule, len(videos))
	errs := make([]error, len(videos))
	if err := parallel.Do(ctx, len(videos), func(i int) {
		vid := videos[i]
		fss[i], errs[i] = ivs.ScheduleFile(m, vid, reqs[vid],
			ivs.Options{Policy: cfg.Policy, Seeds: cfg.Seeds[vid], Frozen: frozen[vid], Workspace: ws})
	}); err != nil {
		return nil, fmt.Errorf("scheduler: phase 1 aborted: %w", err)
	}
	for i, vid := range videos {
		if errs[i] != nil {
			return nil, fmt.Errorf("scheduler: phase 1 for video %d: %w", vid, errs[i])
		}
		s.Put(fss[i])
	}

	out := &Outcome{Schedule: s}
	if cfg.SkipResolution {
		out.Phase1Cost, out.Overflows = m.ScheduleCostFrom(s, folds), len(Overflows(m.Book().Topology(), m.Catalog(), s))
		out.FinalCost = out.Phase1Cost
		return out, nil
	}
	if r != nil && r.Bar.led != nil && !r.Bar.overflowed {
		ovs, err := r.Bar.follow(m.Book().Topology(), m.Catalog(), r.Held, s)
		if err != nil {
			return nil, fmt.Errorf("scheduler: phase 1: %w", Verdict{Invalid: err}.Err())
		}
		if len(ovs) == 0 {
			out.Phase1Cost = m.ScheduleCostFrom(s, folds)
			out.FinalCost = out.Phase1Cost
			return out, nil
		}
	}
	// SORP integrates and prices s once, for itself and for the outcome.
	res, err := sorp.ResolveContext(ctx, m, s, reqs, sorp.Options{Metric: cfg.Metric,
		Policy: cfg.Policy, Seeds: cfg.Seeds, Frozen: frozen, Folds: folds, Workspace: ws})
	if err != nil {
		if r != nil && r.Bar.held == s {
			r.Bar.back(r.Held)
		}
		return nil, fmt.Errorf("scheduler: phase 2: %w", err)
	}
	if r != nil {
		r.Bar.overflowed = res.InitialOverflows > 0
	}
	out.Schedule, out.Phase1Cost, out.FinalCost = res.Schedule, res.CostBefore, res.CostAfter
	out.Overflows, out.Victims, out.Resolution = res.InitialOverflows, res.Victims, res.Work
	return out, nil
}

// RunDirect schedules every request as a direct warehouse stream — the
// paper's "network only system" baseline. It never uses storage and never
// overflows.
func RunDirect(m *cost.Model, reqs workload.Set) (*Outcome, error) {
	return Run(m, reqs, Config{Policy: ivs.NoCaching})
}
