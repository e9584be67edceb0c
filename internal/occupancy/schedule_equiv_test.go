package occupancy_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
)

// TestScheduleNaiveIndexedByteIdentical is the rewrite-safety property for
// the occupancy hot path: the full two-phase scheduler output — schedule,
// costs and victim sequence — must serialize to the same bytes whether the
// ledger answers queries through the incremental event index or through
// the reference per-entry re-scan, at every worker count. A single ulp of
// drift between the paths would show up here as a diverging greedy
// decision or victim order.
func TestScheduleNaiveIndexedByteIdentical(t *testing.T) {
	defer occupancy.SetNaiveForTesting(false)
	for _, seed := range []int64{3, 77} {
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
			run := func(naive bool, workers int) string {
				occupancy.SetNaiveForTesting(naive)
				defer occupancy.SetNaiveForTesting(false)
				out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{Workers: workers})
				if err != nil {
					t.Fatalf("naive=%v workers=%d: %v", naive, workers, err)
				}
				blob, err := json.Marshal(struct {
					Schedule   interface{}
					Phase1Cost interface{}
					FinalCost  interface{}
					Overflows  int
					Victims    []sorp.Victim
				}{out.Schedule, out.Phase1Cost, out.FinalCost, out.Overflows, out.Victims})
				if err != nil {
					t.Fatal(err)
				}
				return string(blob)
			}
			want := run(true, 1)
			if want == "" {
				t.Fatal("empty fingerprint")
			}
			for _, workers := range []int{0, 1, 4, 8} {
				if got := run(false, workers); got != want {
					t.Errorf("indexed Workers=%d differs from naive sequential output", workers)
				}
			}
		})
	}
}
