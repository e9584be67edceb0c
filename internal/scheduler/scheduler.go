// Package scheduler assembles the paper's two-phase Video Scheduler (§3.1):
// phase 1 computes a minimum-cost schedule for every file individually,
// assuming unbounded intermediate storage; phase 2 integrates them, detects
// storage overflows, and resolves them by heat-ranked victim rescheduling.
package scheduler

import (
	"context"
	"fmt"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Config selects the scheduler's policies.
type Config struct {
	// Policy is the caching policy for both phases (default CacheOnRoute).
	Policy ivs.Policy
	// Metric is the victim-selection heat metric for phase 2 (default
	// SpacePerCost, the paper's best performer).
	Metric sorp.HeatMetric
	// SkipResolution stops after phase 1, returning the possibly
	// over-committed integrated schedule (used by studies that inspect
	// raw overflows).
	SkipResolution bool
	// SkipValidation disables the final structural validation (the
	// validation is cheap; this exists for benchmarks isolating pure
	// scheduling time).
	SkipValidation bool
	// Refine enables the post-resolution improvement sweep: each file is
	// rescheduled against the other files' actual disk usage and kept when
	// strictly cheaper, repeating to a fixpoint. An extension beyond the
	// paper's two phases; never increases cost and never re-introduces
	// overflows (the sweep is capacity-aware).
	Refine bool
	// RefinePasses bounds the improvement sweep (default 10).
	RefinePasses int
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
	Victims []sorp.Victim
	// Resolution counts phase 2's work: iterations, pairs rescheduled
	// afresh and pairs reused from an earlier iteration.
	Resolution sorp.Work
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

// Schedule is Run with cancellation: the context is checked before every
// phase-1 file dispatch, every phase-2 victim iteration, and every
// refinement pass, so a cancelled or timed-out ctx aborts the run promptly
// with ctx.Err() wrapped in the returned error. Work done so far is
// discarded — a partial schedule is not a schedule.
//
// Phase 1 fans the per-file individual scheduling out over the bounded
// worker pool selected by Config.Workers. File schedules are independent
// in phase 1 (unbounded-storage assumption, paper §3.2), so this is safe;
// results are merged in video-ID order, keeping the outcome byte-identical
// to a sequential run.
func Schedule(ctx context.Context, m *cost.Model, reqs workload.Set, cfg Config) (*Outcome, error) {
	parts := reqs.ByVideo()
	videos := reqs.Videos()
	s := schedule.New()
	fss := make([]*schedule.FileSchedule, len(videos))
	errs := make([]error, len(videos))
	if err := parallel.Do(ctx, cfg.Workers, len(videos), func(i int) {
		fss[i], errs[i] = ivs.ScheduleFile(m, videos[i], parts[videos[i]],
			ivs.Options{Policy: cfg.Policy, Seeds: cfg.Seeds[videos[i]]})
	}); err != nil {
		return nil, fmt.Errorf("scheduler: phase 1 aborted: %w", err)
	}
	for i, vid := range videos {
		if errs[i] != nil {
			return nil, fmt.Errorf("scheduler: phase 1 for video %d: %w", vid, errs[i])
		}
		s.Put(fss[i])
	}
	// Seeded videos nobody requested still occupy space and money; carry
	// them so costs and occupancy stay truthful.
	for vid, seeds := range cfg.Seeds {
		if s.File(vid) != nil || len(seeds) == 0 {
			continue
		}
		fs, err := ivs.ScheduleFile(m, vid, nil, ivs.Options{Policy: cfg.Policy, Seeds: seeds})
		if err != nil {
			return nil, fmt.Errorf("scheduler: seeding video %d: %w", vid, err)
		}
		s.Put(fs)
	}
	out := &Outcome{Schedule: s, Phase1Cost: m.ScheduleCost(s)}

	ledger := occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), s)
	out.Overflows = len(ledger.AllOverflows())

	if cfg.SkipResolution || out.Overflows == 0 {
		out.FinalCost = out.Phase1Cost
	} else {
		res, err := sorp.ResolveContext(ctx, m, s, parts, sorp.Options{
			Metric: cfg.Metric, Policy: cfg.Policy, Seeds: cfg.Seeds, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("scheduler: phase 2: %w", err)
		}
		out.Schedule = res.Schedule
		out.FinalCost = res.CostAfter
		out.Victims = res.Victims
		out.Resolution = res.Work
	}

	if cfg.Refine && !cfg.SkipResolution {
		rr, err := refine(ctx, m, out.Schedule, parts, cfg.Policy, cfg.RefinePasses, cfg.Seeds)
		if err != nil {
			return nil, err
		}
		out.RefinedFiles = rr.moved
		out.RefineSavings = rr.savings
		out.FinalCost = m.ScheduleCost(out.Schedule)
	}

	if !cfg.SkipValidation {
		if err := out.Schedule.Validate(m.Book().Topology(), m.Catalog(), reqs); err != nil {
			return nil, fmt.Errorf("scheduler: produced invalid schedule: %w", err)
		}
		if !cfg.SkipResolution {
			l := occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), out.Schedule)
			if ovs := l.AllOverflows(); len(ovs) > 0 {
				return nil, fmt.Errorf("scheduler: %d overflows survive resolution, first %v", len(ovs), ovs[0])
			}
		}
	}
	return out, nil
}

// RunDirect schedules every request as a direct warehouse stream — the
// paper's "network only system" baseline. It never uses storage and never
// overflows.
func RunDirect(m *cost.Model, reqs workload.Set) (*Outcome, error) {
	return Run(m, reqs, Config{Policy: ivs.NoCaching})
}
