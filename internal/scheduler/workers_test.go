package scheduler_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
)

// fingerprint serializes everything observable about an outcome so the
// worker-count property below really is "byte-identical", not merely
// "equal cost".
func fingerprint(t *testing.T, out *scheduler.Outcome) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Schedule   interface{}
		Phase1Cost interface{}
		FinalCost  interface{}
		Overflows  int
		Victims    []api.Victim
	}{out.Schedule, out.Phase1Cost, out.FinalCost, out.Overflows, out.Victims})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestScheduleWorkersByteIdentical is the determinism property for the
// parallel two-phase scheduler: for seeded random workloads tight enough to
// force SORP activity, the outcome at any GOMAXPROCS — the size of both
// fan-outs' pool — must serialize to the same bytes as the sequential
// (GOMAXPROCS 1) run: same schedule, same costs, same victim sequence. Run
// under -race in CI, this also shakes out data races in the phase-1 fan-out
// and the concurrent candidate evaluation.
func TestScheduleWorkersByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42, 1997} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r, err := testutil.Build(testutil.Params{
				Storages:        6,
				UsersPerStorage: 4,
				RequestsPerUser: 3,
				Titles:          20,
				CapacityGB:      2, // tight: forces overflows, so phase 2 runs
				Seed:            seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func(procs int) string {
				testutil.SetProcs(t, procs)
				out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				return fingerprint(t, out)
			}
			want := run(1)
			if want == "" {
				t.Fatal("empty fingerprint")
			}
			for _, procs := range []int{2, 4} {
				if got := run(procs); got != want {
					t.Errorf("GOMAXPROCS=%d outcome differs from sequential run", procs)
				}
			}
		})
	}
}
