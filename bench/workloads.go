package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/vodsim/vsp/internal/simtime"
)

// options select what one invocation runs.
type options struct {
	seed int64
	// seconds is the measuring budget per workload. 0 runs the full
	// sizing: the repetition counts in the workload tables below.
	seconds int
	// reps overrides the repetition count (0 keeps the workload's own).
	reps  int
	smoke bool
	// endToEnd runs the untraced repetitions; traced runs one repetition
	// with the handler wrappers on and then the layer ladder.
	endToEnd, traced bool
	dataDir          string // durable servers' data directories live here
	outDir           string // span files are written here
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string           `json:"name"`
	Metrics   map[string]value `json:"metrics"`
	Layers    map[string]value `json:"layers,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	// KnownFailed counts the failed operations that match the
	// known-failure ledger (known_failures.json); they are part of Failed.
	KnownFailed int        `json:"known_failed"`
	Counts      workCounts `json:"counts"`
	// Perturbed counts epoch closes, over all repetitions, that admitted a
	// request from beyond their boundary (see repResult.perturbed).
	Perturbed int      `json:"perturbed_epochs"`
	Failures  []string `json:"failures,omitempty"`
}

// setupSamples is how many set-ups a run times; setup_s is their median.
const setupSamples = 5

// settle ends every set-up: a fixed pause before the timed window may
// begin, in which listeners park and the runtime's background work from
// building the model dies down. It is also the issue's "floor 0.1 s" on
// setup_s made part of the measurement, because the driver's bound has no
// floor: the real work of a set-up is a millisecond or two of file creation
// and flushes whose latency drifts by tens of percent, which with the pause
// stays inside the 25 % bound, while work moved into set-up — tens of
// milliseconds, or it would not be worth moving — still shows.
const settle = 100 * time.Millisecond

// pacedDensity is the paced traces' reservations per hour of span; with
// the rate it fixes how much planning work a second of load carries, at
// any run length.
const pacedDensity = 300

var workloadNames = []string{"intake_light", "intake_heavy", "gateway_paced", "batch_solve"}

var workloadWhy = map[string]string{
	"intake_light":  "closed loop, no overflow: decode, Submit and WAL append+fsync do the work; a solver change must show nothing",
	"intake_heavy":  "open loop at 80 req/s on 8 GB storages: epoch closes hold the horizon lock while submits and plan reads queue",
	"gateway_paced": "the intake_heavy load through the gateway over 3 durable shards: placement, the extra hop, broadcast and merge",
	"batch_solve":   "no HTTP, no WAL: scheduler.Schedule on the paper-scale rig, where IVS, occupancy and SORP do all the work",
}

// intakeWorkload sizes one of the three HTTP workloads.
func intakeWorkload(name string, o options) intakeSpec {
	metro := func(capacityGB float64) rigSpec {
		return rigSpec{storages: 6, usersPer: 4, titles: 50, capacityGB: capacityGB}
	}
	var s intakeSpec
	switch name {
	case "intake_light":
		s = intakeSpec{rig: metro(1000), n: 20000, span: 24 * simtime.Hour, epoch: 1000, lag: 2 * simtime.Hour, shards: 1, reps: 5}
		if o.smoke {
			s.n, s.span, s.epoch, s.lag = 600, 3*simtime.Hour, 100, simtime.Hour
		}
	case "intake_heavy", "gateway_paced":
		s = intakeSpec{rig: metro(8), epoch: 100, lag: 2 * simtime.Hour, rate: 80, planHz: 2, shards: 1, reps: 3}
		seconds := 30.0
		if o.seconds > 0 {
			// One repetition fills the budget: the trace grows with the run
			// length at constant density, so an epoch costs the same.
			seconds, s.reps = float64(o.seconds), 1
		}
		if o.smoke {
			seconds, s.epoch, s.lag = 1.5, 40, 12*simtime.Minute
		}
		s.n = int(s.rate * seconds)
		s.span = simtime.Duration(s.n) * simtime.Hour / pacedDensity
		if name == "gateway_paced" {
			s.shards, s.gw = 3, true
		}
	}
	s.name = name
	if o.smoke {
		s.reps = 1
	}
	if o.reps > 0 {
		s.reps = o.reps
	}
	return s
}

// budget decides whether another repetition fits: with a fixed count it
// counts, with a time budget it stops once the next repetition would
// overshoot the budget by more than half its length.
type budget struct {
	reps    int
	seconds int
	spent   time.Duration
	done    int
}

// newBudget budgets a workload's untraced repetitions. A traced-only run
// still needs one: tracing overhead is the difference between the two.
func newBudget(reps int, o options) budget {
	switch {
	case !o.endToEnd:
		return budget{reps: 1}
	case o.reps > 0 || o.smoke:
		return budget{reps: reps}
	}
	return budget{reps: reps, seconds: o.seconds}
}

func (b *budget) next(last time.Duration) bool {
	b.spent += last
	if b.done++; b.done == 1 {
		return true
	}
	if b.seconds > 0 {
		return b.spent+last/2 <= time.Duration(b.seconds)*time.Second
	}
	return b.done <= b.reps
}

func runIntake(name string, o options) (*workloadResult, error) {
	spec := intakeWorkload(name, o)
	out := &workloadResult{Name: name, Metrics: map[string]value{}}
	var total ops

	var reps []*repResult
	b := newBudget(spec.reps, o)
	var last time.Duration
	for b.next(last) {
		r, err := runIntakeRep(spec, o.seed, o.dataDir, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		total.add(r.ops)
		last = r.window
	}

	setups := make([]float64, 0, setupSamples)
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
	}
	for len(setups) < setupSamples {
		d, err := timeSetup(spec, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	all := reps
	if o.traced {
		tr, err := runIntakeRep(spec, o.seed, o.dataDir, true)
		if err != nil {
			return nil, err
		}
		total.add(tr.ops)
		all = append(all, tr)
		lad, err := runLadder(spec, tr, o.dataDir)
		if err != nil {
			return nil, err
		}
		if tr.perturbed == 0 {
			total.check(sameCounts(tr.counts, lad.counts), "ladder replays the traced run's work")
		}
		out.Layers = intakeLayers(spec, reps[0], tr, lad)
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(filepath.Join(o.outDir, "trace-"+name+".jsonl"), tr.spans); err != nil {
				return nil, err
			}
		}
	}

	// Same trace, fresh state: the solver's work and the plan's cost must
	// not depend on timing.
	var clean []*repResult
	for _, r := range all {
		out.Perturbed += r.perturbed
		if r.perturbed == 0 {
			clean = append(clean, r)
		}
	}
	if len(clean) > 1 {
		var err error
		for _, r := range clean[1:] {
			if e := sameCounts(clean[0].counts, r.counts); e != nil {
				err = e
			} else if r.planCost != clean[0].planCost {
				err = fmt.Errorf("plan_cost %.6f vs %.6f", clean[0].planCost, r.planCost)
			}
		}
		total.check(err, "work counts and plan_cost equal across repetitions")
	}

	out.Counts = reps[0].counts
	intakeEndToEnd(spec, reps, setups, total, out.Metrics)
	out.Attempted, out.Failed, out.KnownFailed, out.Failures = total.attempted, total.failed, total.known, total.msgs
	return out, nil
}

func sameCounts(a, b workCounts) error {
	if a != b {
		return fmt.Errorf("work counts differ: %+v vs %+v", a, b)
	}
	return nil
}

// timeSetup times one more set-up: model, trace and servers up, then torn
// down again.
func timeSetup(spec intakeSpec, o options) (time.Duration, error) {
	dir, err := os.MkdirTemp(o.dataDir, spec.name+"-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	_, _, st, d, err := setUp(spec, o.seed, dir, nil)
	if err != nil {
		return 0, err
	}
	return d, st.close()
}

// intakeEndToEnd condenses the untraced repetitions into the end-to-end
// metrics.
func intakeEndToEnd(spec intakeSpec, reps []*repResult, setups []float64, total ops, out map[string]value) {
	perRep := map[string][]float64{}
	add := func(name string, v float64) { perRep[name] = append(perRep[name], v) }
	var plans []float64
	for _, r := range reps {
		s := sortedCopy(r.submitMS)
		add("submit_p50_ms", percentile(s, 50))
		add("submit_p99_ms", percentile(s, 99))
		add("accepted_per_s", float64(r.accepted())/r.window.Seconds())
		add("advance_p50_ms", percentile(sortedCopy(r.advanceMS), 50))
		add("recover_s", r.recover.Seconds())
		add("alloc_mb", r.allocMB)
		add("plan_cost", r.planCost)
		if spec.rate > 0 {
			miss := 0
			for i, ms := range r.submitMS {
				if !r.acked[i] || ms > float64(sloLimit/time.Millisecond) {
					miss++
				}
			}
			add("submit_slo_miss_share", float64(miss)/float64(len(r.submitMS)))
		}
		if spec.planHz > 0 {
			p := sortedCopy(r.planMS)
			add("plan_read_p50_ms", percentile(p, 50))
			add("plan_read_p90_ms", percentile(p, 90))
			plans = append(plans, r.planMS...)
		}
	}
	perRep["setup_s"] = setups
	for _, def := range endToEnd {
		xs, ok := perRep[def.name]
		if !ok {
			continue
		}
		n := 0
		switch def.name {
		case "submit_p50_ms", "submit_p99_ms", "submit_slo_miss_share":
			n = spec.n
		case "advance_p50_ms":
			n = len(reps[0].advanceMS)
		}
		out[def.name] = overReps(def, xs, n)
	}
	// Plan reads are few per repetition, so their percentiles are taken
	// over all repetitions pooled; min and max stay per repetition.
	if spec.planHz > 0 {
		p := sortedCopy(plans)
		for name, pct := range map[string]float64{"plan_read_p50_ms": 50, "plan_read_p90_ms": 90} {
			v := out[name]
			v.Value, v.N = percentile(p, pct), len(p)
			out[name] = v
		}
	}
	def, _ := findMetric(endToEnd, "failed_share")
	out["failed_share"] = overReps(def, []float64{float64(total.failed) / float64(total.attempted)}, total.attempted)
}
