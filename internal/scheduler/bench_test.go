package scheduler_test

import (
	"testing"

	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
)

// BenchmarkSchedule measures the one-shot two-phase scheduler on a
// mid-size rig (500 requests). This is the number BENCH_scheduler.json
// tracks across PRs; keep the parameters stable.
func BenchmarkSchedule(b *testing.B) {
	r, err := testutil.Build(testutil.Params{
		Storages:        10,
		UsersPerStorage: 5,
		RequestsPerUser: 10,
		Titles:          50,
		Seed:            7,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Ten untimed solves first. A solve's workspace keeps what the solves
	// before it grew, so each allocates less than the last until the pools
	// are warm: the process's first solve allocates 2.0 MB, its second 0.52,
	// its fourth 0.34, its tenth 0.28, where it stays (0.27 at the
	// thirtieth). A -benchtime=1x run would otherwise time a solve short of
	// the steady state a longer run records.
	for i := 0; i < 10; i++ {
		if _, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule10k is the stress-size companion to BenchmarkSchedule:
// the same two-phase solve on a 10,000-request rig (25 storages × 20
// users × 20 requests, 200 titles). It exists to keep the hot-path data
// structures honest at a scale where any superlinear behavior in the
// occupancy ledger or SORP would dominate; run it with `-cpu 1,2` (the
// bench-json target does) to also track what the worker pool saves.
func BenchmarkSchedule10k(b *testing.B) {
	r, err := testutil.Build(testutil.Params{
		Storages:        25,
		UsersPerStorage: 20,
		RequestsPerUser: 20,
		Titles:          200,
		Seed:            7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulePhase1 isolates the phase-1 per-file fan-out on the same
// rig as BenchmarkSchedule. The pool is GOMAXPROCS goroutines, so running
// it with `-cpu 1,4` compares the sequential path against a 4-worker pool
// on identical input; benchjson turns the pair into phase1_parallel_speedup.
// The output is byte-identical either way — only the wall clock moves, and
// only when real hardware parallelism is available.
func BenchmarkSchedulePhase1(b *testing.B) {
	r, err := testutil.Build(testutil.Params{
		Storages:        10,
		UsersPerStorage: 5,
		RequestsPerUser: 10,
		Titles:          50,
		Seed:            7,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := scheduler.Config{SkipResolution: true, SkipValidation: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Run(r.Model, r.Requests, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
