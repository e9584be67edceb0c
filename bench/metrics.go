package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricDef struct {
	name, unit  string
	lowerBetter bool
	// bound is the share of the baseline's median by which the metric may
	// worsen before -compare calls it a regression, for two runs of one
	// seed; 0 with no floor means the metric is informational.
	bound float64
	// floor is an absolute slack added to the bound, for metrics whose
	// baseline is too small for a share of it to mean anything.
	floor float64
	// driverBound, when set, puts the metric in BENCHMARK.json's
	// end_to_end list with this bound: every workload reports it and it is
	// never 0. The driver compares medians over runs of different seeds, so
	// this bound is bound widened to at least three times the spread
	// measured across seeds (README.md records the spreads). The other
	// end-to-end metrics exist on some workloads only or are noisier than
	// any bound the driver allows, so BENCHMARK.json carries them in
	// per_layer, which has no bounds and allows 0.
	driverBound float64
}

// endToEnd are the metrics a user of the system sees. Each is the median
// over repetitions, with min and max beside it.
//
// On batch_solve a "submit" is handing the whole batch to
// scheduler.Schedule and waiting for the schedule, so submit_p50_ms is the
// median solve, submit_p99_ms the slowest, and accepted_per_s the requests
// scheduled per second of solving.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25, driverBound: 0.25},
	{name: "alloc_mb", unit: "MB", lowerBetter: true, bound: 0.05, driverBound: 0.20},
	{name: "plan_cost", unit: "USD", lowerBetter: true, bound: 0.005, driverBound: 0.10},
	// Every workload reports the next three too, but no wall-clock metric
	// can carry a driver bound in this sandbox: over ten seeds CPU-bound
	// time (closes, solves: submit_p99_ms) spread by 15–30 %, and
	// flush-bound time (submit_p50_ms on intake_light) drifted by 17 % and
	// 33 % between two back-to-back sets of runs, against a widest
	// allowed bound of 25 % (README.md has the table). A bound narrower than the noise rejects at
	// random; -compare bounds them between runs of one seed instead, and
	// says unresolved when the repetitions disagree.
	{name: "submit_p50_ms", unit: "ms", lowerBetter: true, bound: 0.10},
	{name: "submit_p99_ms", unit: "ms", lowerBetter: true, bound: 0.15},
	{name: "accepted_per_s", unit: "1/s", bound: 0.10},
	{name: "submit_slo_miss_share", unit: "share", lowerBetter: true, bound: 0.15, floor: 0.01},
	{name: "advance_p50_ms", unit: "ms", lowerBetter: true, bound: 0.10},
	{name: "plan_read_p50_ms", unit: "ms", lowerBetter: true, bound: 0.15},
	{name: "plan_read_p90_ms", unit: "ms", lowerBetter: true, bound: 0.15},
	{name: "recover_s", unit: "s", lowerBetter: true, bound: 0.15},
	{name: "solve_s", unit: "s", lowerBetter: true, bound: 0.10},
	// No increase allowed: the floor only absorbs float rounding.
	{name: "failed_share", unit: "share", lowerBetter: true, bound: 0, floor: 1e-12},
}

// perLayer are the traced pass's metrics: one repetition with the handler
// wrappers on, then the layer ladder. They carry no bound.
var perLayer = []metricDef{
	{name: "loopback.submit_ms_p50", unit: "ms", lowerBetter: true},

	{name: "gateway.submit_self_ms_p50", unit: "ms", lowerBetter: true},
	{name: "gateway.submit_self_ms_p99", unit: "ms", lowerBetter: true},
	{name: "gateway.advance_self_ms_p50", unit: "ms", lowerBetter: true},
	{name: "gateway.advance_lag_ms_max", unit: "ms", lowerBetter: true},
	{name: "gateway.plan_merge_ms_p50", unit: "ms", lowerBetter: true},
	{name: "gateway.routed_max_share", unit: "share", lowerBetter: true},
	{name: "gateway.failovers", unit: "count", lowerBetter: true},
	{name: "gateway.sheds", unit: "count", lowerBetter: true},
	{name: "gateway.breaker_ejections", unit: "count", lowerBetter: true},

	{name: "server.submit_self_ms_p50", unit: "ms", lowerBetter: true},
	{name: "server.submit_self_ms_p99", unit: "ms", lowerBetter: true},
	{name: "server.advance_self_ms_p50", unit: "ms", lowerBetter: true},
	{name: "server.plan_ms_p50", unit: "ms", lowerBetter: true},
	{name: "server.plan_bytes", unit: "bytes", lowerBetter: true},
	{name: "server.shed", unit: "count", lowerBetter: true},
	{name: "server.late", unit: "count", lowerBetter: true},
	{name: "server.errors", unit: "count", lowerBetter: true},

	{name: "horizon.submit_ms_p50", unit: "ms", lowerBetter: true},
	{name: "horizon.submit_ms_p99", unit: "ms", lowerBetter: true},
	{name: "horizon.submit_blocked_share", unit: "share", lowerBetter: true},
	{name: "horizon.submit_blocked_ms_p50", unit: "ms", lowerBetter: true},
	{name: "horizon.plan_blocked_share", unit: "share", lowerBetter: true},
	{name: "horizon.advance_ms_p50", unit: "ms", lowerBetter: true},
	{name: "horizon.advance_busy_s", unit: "s", lowerBetter: true},
	{name: "horizon.epochs", unit: "count", lowerBetter: true},
	{name: "horizon.admitted", unit: "count"},
	{name: "horizon.replanned", unit: "count", lowerBetter: true},
	{name: "horizon.replanned_per_admitted", unit: "ratio", lowerBetter: true},
	{name: "horizon.overflows", unit: "count", lowerBetter: true},
	{name: "horizon.victims", unit: "count", lowerBetter: true},
	{name: "horizon.durable_overhead_ms_p50", unit: "ms", lowerBetter: true},
	{name: "horizon.committed_clone_ms_p50", unit: "ms", lowerBetter: true},
	{name: "horizon.recover_ms", unit: "ms", lowerBetter: true},
	{name: "horizon.replayed_submits", unit: "count", lowerBetter: true},
	{name: "horizon.replayed_advances", unit: "count", lowerBetter: true},
	{name: "horizon.recover_failed", unit: "count", lowerBetter: true},

	{name: "wal.append_ms_p50", unit: "ms", lowerBetter: true},
	{name: "wal.append_ms_p99", unit: "ms", lowerBetter: true},
	{name: "wal.appends", unit: "count", lowerBetter: true},
	{name: "wal.bytes_per_record", unit: "bytes", lowerBetter: true},
	{name: "wal.read_ms", unit: "ms", lowerBetter: true},
	{name: "wal.snapshot_write_ms", unit: "ms", lowerBetter: true},
	{name: "wal.snapshot_bytes", unit: "bytes", lowerBetter: true},

	{name: "scheduler.solve_ms", unit: "ms", lowerBetter: true},
	{name: "ivs.phase1_ms", unit: "ms", lowerBetter: true},
	{name: "occupancy.integrate_ms", unit: "ms", lowerBetter: true},
	{name: "sorp.resolve_ms", unit: "ms", lowerBetter: true},
	{name: "sorp.overflows_in", unit: "count", lowerBetter: true},
	{name: "sorp.victims", unit: "count", lowerBetter: true},
	{name: "sorp.ms_per_victim", unit: "ms", lowerBetter: true},
	{name: "sorp.alloc_mb", unit: "MB", lowerBetter: true},
	{name: "schedule.validate_ms", unit: "ms", lowerBetter: true},
	{name: "audit.run_ms", unit: "ms", lowerBetter: true},
	{name: "audit.findings", unit: "count", lowerBetter: true},
	{name: "scheduler.phase1_cost", unit: "USD", lowerBetter: true},
	{name: "scheduler.resolution_delta_pct", unit: "%", lowerBetter: true},

	{name: "client.late_ms_p99", unit: "ms", lowerBetter: true},
	{name: "client.submit_attributed_share", unit: "share"},
	{name: "trace_overhead_share", unit: "share", lowerBetter: true},
}

// value is one reported metric: the median over repetitions (or the single
// measurement of a per-layer metric) with the spread beside it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Reps  int     `json:"reps"`
	// N is the per-repetition sample count behind a percentile.
	N int `json:"n,omitempty"`
}

// overReps condenses one measurement per repetition.
func overReps(def metricDef, perRep []float64, n int) value {
	lo, hi := minMax(perRep)
	return value{Value: median(perRep), Unit: def.unit, Min: lo, Max: hi, Reps: len(perRep), N: n}
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
