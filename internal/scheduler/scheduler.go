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
	Victim     = sorp.Victim
	Work       = sorp.Work
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
	// Refine enables the post-resolution improvement sweep: each file is
	// rescheduled against the other files' actual disk usage and kept when
	// strictly cheaper, repeating to a fixpoint. An extension beyond the
	// paper's two phases; never increases cost and never re-introduces
	// overflows (the sweep is capacity-aware).
	Refine bool
	// Seeds installs pre-placed standing copies per video (strategic
	// replication; see internal/placement). The greedy serves from them at
	// zero marginal storage cost, resolution treats them as immovable, and
	// their committed cost appears in every reported total.
	Seeds map[media.VideoID][]schedule.Residency
	// Workers bounds the worker pool for phase-1 per-file scheduling and
	// phase-2 candidate evaluation. Phase-1 results are merged in video-ID
	// order and phase-2 victims are picked by a total order over the
	// candidate set, so the produced schedule is byte-identical for every
	// worker count. 0 means GOMAXPROCS, 1 forces the sequential path.
	Workers int
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
	Victims []Victim
	// Resolution counts phase 2's work: iterations, pairs rescheduled
	// afresh and pairs reused from an earlier iteration.
	Resolution Work
	// RefinedFiles counts files improved by the refinement sweep and
	// RefineSavings the total cost it recovered (zero unless Config.Refine).
	RefinedFiles  int
	RefineSavings units.Money
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

// Solve is the two-phase pipeline, the only one in the repository: the batch
// scheduler and the rolling horizon's epoch close (internal/horizon) are
// both this function. reqs holds, per video, the requests to plan; frozen
// holds, per video, an immutable prefix committed by earlier epochs (nil for
// a batch), which phase 1 extends and phase 2 never selects a victim from.
// A file is scheduled for every video that is requested, frozen or seeded,
// so history and standing copies nobody asks for this round still occupy
// their space and money.
//
// Phase 1 fans the per-file individual scheduling out over the bounded
// worker pool selected by Config.Workers. File schedules are independent
// in phase 1 (unbounded-storage assumption, paper §3.2), so this is safe;
// results are merged in video-ID order, keeping the outcome byte-identical
// to a sequential run. The context is checked before every phase-1 file
// dispatch, every phase-2 victim iteration and every refinement pass.
//
// Solve does not judge its own result: callers commit only what Check
// accepts against the full set of requests the schedule must serve.
func Solve(ctx context.Context, m *cost.Model, reqs map[media.VideoID][]workload.Request,
	frozen map[media.VideoID]*schedule.FileSchedule, cfg Config) (*Outcome, error) {

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

	s := schedule.New()
	fss := make([]*schedule.FileSchedule, len(videos))
	errs := make([]error, len(videos))
	if err := parallel.Do(ctx, cfg.Workers, len(videos), func(i int) {
		vid := videos[i]
		fss[i], errs[i] = ivs.ScheduleFile(m, vid, reqs[vid],
			ivs.Options{Policy: cfg.Policy, Seeds: cfg.Seeds[vid], Frozen: frozen[vid]})
	}); err != nil {
		return nil, fmt.Errorf("scheduler: phase 1 aborted: %w", err)
	}
	for i, vid := range videos {
		if errs[i] != nil {
			return nil, fmt.Errorf("scheduler: phase 1 for video %d: %w", vid, errs[i])
		}
		s.Put(fss[i])
	}
	out := &Outcome{Schedule: s, Phase1Cost: m.ScheduleCost(s)}
	out.Overflows = len(Overflows(m.Book().Topology(), m.Catalog(), s))

	if cfg.SkipResolution || out.Overflows == 0 {
		out.FinalCost = out.Phase1Cost
	} else {
		res, err := sorp.ResolveContext(ctx, m, s, reqs, sorp.Options{Metric: cfg.Metric,
			Policy: cfg.Policy, Seeds: cfg.Seeds, Frozen: frozen, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("scheduler: phase 2: %w", err)
		}
		out.Schedule = res.Schedule
		out.FinalCost = res.CostAfter
		out.Victims = res.Victims
		out.Resolution = res.Work
	}

	if cfg.Refine && !cfg.SkipResolution {
		rr, err := refine(ctx, m, out.Schedule, reqs, frozen, cfg)
		if err != nil {
			return nil, err
		}
		out.RefinedFiles = rr.moved
		out.RefineSavings = rr.savings
		out.FinalCost = m.ScheduleCost(out.Schedule)
	}
	return out, nil
}

// RunDirect schedules every request as a direct warehouse stream — the
// paper's "network only system" baseline. It never uses storage and never
// overflows.
func RunDirect(m *cost.Model, reqs workload.Set) (*Outcome, error) {
	return Run(m, reqs, Config{Policy: ivs.NoCaching})
}
