package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/workload"
)

// batchSpec defines the batch_solve workload: one scheduler.Schedule call
// per repetition on a seed-derived batch, no HTTP and no WAL.
type batchSpec struct {
	rig     rigSpec
	perUser int
	span    simtime.Duration
	reps    int
}

func batchWorkload(o options) batchSpec {
	s := batchSpec{
		rig:     rigSpec{storages: 19, usersPer: 10, titles: 200, capacityGB: 5},
		perUser: 10, span: 12 * simtime.Hour, reps: 10,
	}
	if o.smoke {
		s.rig, s.reps = rigSpec{storages: 10, usersPer: 5, titles: 100, capacityGB: 5}, 1
	}
	if o.reps > 0 {
		s.reps = o.reps
	}
	return s
}

// allocMB runs f and returns the megabytes it allocated.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func runBatch(o options) (*workloadResult, error) {
	spec := batchWorkload(o)
	out := &workloadResult{Name: "batch_solve", Metrics: map[string]value{}}
	var total ops
	ctx := context.Background()

	perRep := map[string][]float64{}
	var m *cost.Model
	var reqs workload.Set
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		var err error
		if m, err = spec.rig.model(); err != nil {
			return nil, err
		}
		users := m.Book().Topology().NumUsers()
		reqs = genTrace(o.seed, users, m.Catalog().Len(), users*spec.perUser, spec.span)
		time.Sleep(settle)
		perRep["setup_s"] = append(perRep["setup_s"], time.Since(t0).Seconds())
	}
	topo, cat := m.Book().Topology(), m.Catalog()

	b := newBudget(spec.reps, o)
	var solveMS []float64
	var last time.Duration
	for b.next(last) {
		var res *scheduler.Outcome
		var err error
		runtime.GC()
		mb := allocMB(func() {
			t0 := time.Now()
			res, err = scheduler.Schedule(ctx, m, reqs, scheduler.Config{})
			last = time.Since(t0)
		})
		if err != nil {
			total.fail("solve: %v", err)
			continue
		}
		total.ok()
		solveMS = append(solveMS, ms(last))
		perRep["alloc_mb"] = append(perRep["alloc_mb"], mb)
		perRep["plan_cost"] = append(perRep["plan_cost"], float64(res.FinalCost))
		total.check(res.Schedule.Validate(topo, cat, reqs), "schedule valid for the batch")
		total.check(overflowFree(m, res.Schedule), "schedule overflow-free")
		total.check(sameCost(float64(m.ScheduleCost(res.Schedule)), float64(res.FinalCost)), "reported cost is Ψ of the schedule")
		out.Counts = workCounts{Epochs: 1, Admitted: len(reqs), Overflows: res.Overflows, Victims: len(res.Victims)}
	}
	if len(solveMS) == 0 {
		return nil, fmt.Errorf("batch_solve: no solve succeeded: %v", total.msgs)
	}
	if costs := perRep["plan_cost"]; len(costs) > 1 {
		var err error
		for _, c := range costs[1:] {
			if c != costs[0] {
				err = fmt.Errorf("plan_cost %.6f vs %.6f", costs[0], c)
			}
		}
		total.check(err, "plan_cost equal across repetitions")
	}

	// A submit here is the whole batch handed to the scheduler.
	sorted := sortedCopy(solveMS)
	put := func(name string, xs []float64, n int) {
		def, _ := findMetric(endToEnd, name)
		out.Metrics[name] = overReps(def, xs, n)
	}
	put("setup_s", perRep["setup_s"], 0)
	put("submit_p50_ms", solveMS, len(reqs))
	out.Metrics["submit_p99_ms"] = value{Value: percentile(sorted, 99), Unit: "ms", Min: sorted[0], Max: sorted[len(sorted)-1], Reps: len(sorted), N: len(sorted)}
	perS := make([]float64, len(solveMS))
	secs := make([]float64, len(solveMS))
	for i, d := range solveMS {
		perS[i], secs[i] = float64(len(reqs))/(d/1000), d/1000
	}
	put("accepted_per_s", perS, len(reqs))
	put("solve_s", secs, 0)
	put("alloc_mb", perRep["alloc_mb"], 0)
	put("plan_cost", perRep["plan_cost"], 0)

	if o.traced {
		ls, err := batchLadder(ctx, m, reqs, &total)
		if err != nil {
			return nil, err
		}
		out.Layers = ls
	}
	put("failed_share", []float64{float64(total.failed) / float64(total.attempted)}, total.attempted)
	out.Attempted, out.Failed, out.KnownFailed, out.Failures = total.attempted, total.failed, total.known, total.msgs
	return out, nil
}

// batchLadder times each stage of one solve through its own public entry
// point: phase 1 alone, integration and overflow detection, SORP on the
// phase-1 schedule, validation, the audit bundle.
func batchLadder(ctx context.Context, m *cost.Model, reqs workload.Set, total *ops) (layerSet, error) {
	ls := layerSet{}
	topo, cat := m.Book().Topology(), m.Catalog()
	var err error
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		ls.set(name, ms(time.Since(t0)), 1)
	}

	var full, phase1 *scheduler.Outcome
	timed("scheduler.solve_ms", func() { full, err = scheduler.Schedule(ctx, m, reqs, scheduler.Config{}) })
	if err != nil {
		return nil, err
	}
	timed("ivs.phase1_ms", func() {
		phase1, err = scheduler.Schedule(ctx, m, reqs, scheduler.Config{SkipResolution: true, SkipValidation: true})
	})
	if err != nil {
		return nil, err
	}
	overflows := 0
	timed("occupancy.integrate_ms", func() {
		overflows = len(occupancy.FromSchedule(topo, cat, phase1.Schedule).AllOverflows())
	})
	ls.set("sorp.overflows_in", float64(overflows), 1)

	var res *sorp.Result
	parts := reqs.ByVideo()
	mb := allocMB(func() {
		timed("sorp.resolve_ms", func() { res, err = sorp.ResolveContext(ctx, m, phase1.Schedule, parts, sorp.Options{}) })
	})
	if err != nil {
		return nil, err
	}
	resolveMS := ls["sorp.resolve_ms"].Value
	ls.set("sorp.alloc_mb", mb, 1)
	ls.set("sorp.victims", float64(len(res.Victims)), 1)
	if len(res.Victims) > 0 {
		ls.set("sorp.ms_per_victim", resolveMS/float64(len(res.Victims)), len(res.Victims))
	}
	total.check(sameCost(float64(res.CostAfter), float64(full.FinalCost)), "SORP on the phase-1 schedule reaches the full solve's cost")

	timed("schedule.validate_ms", func() { err = res.Schedule.Validate(topo, cat, reqs) })
	total.check(err, "resolved schedule valid")
	var rep *audit.Report
	timed("audit.run_ms", func() { rep = audit.Run(m, res.Schedule, reqs) })
	ls.set("audit.findings", float64(len(rep.Findings)), 1)
	var findings error
	if !rep.OK() {
		findings = fmt.Errorf("%s (%d findings)", rep.Findings[0], len(rep.Findings))
	}
	total.check(findings, "audit bundle passes")

	ls.set("scheduler.phase1_cost", float64(full.Phase1Cost), 1)
	ls.set("scheduler.resolution_delta_pct", 100*float64(full.ResolutionDelta())/float64(full.Phase1Cost), 1)
	return ls, nil
}
