package scheduler_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
)

// TestScheduleNaiveIndexedByteIdentical is the rewrite-safety property for
// the occupancy hot path: the full two-phase scheduler output — schedule,
// costs and victim sequence — must serialize, at every worker count, to the
// bytes recorded in testdata/reference-seed*.json. Those were written by a
// run on the reference ledger, which answered every query by re-summing
// Eq. 6 per entry and took SORP's evaluations table-free, and which matched
// the event-indexed run byte for byte. A single ulp of drift in the index,
// or a reused evaluation that should have been re-run, would show up here
// as a diverging greedy decision or victim order.
func TestScheduleNaiveIndexedByteIdentical(t *testing.T) {
	for _, seed := range []int64{3, 77} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			blob, err := os.ReadFile(fmt.Sprintf("testdata/reference-seed%d.json", seed))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.TrimSuffix(string(blob), "\n")
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
			for _, workers := range []int{0, 1, 4, 8} {
				out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{Workers: workers})
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				if got := fingerprint(t, out); got != want {
					t.Errorf("Workers=%d differs from the reference output recorded in testdata", workers)
				}
			}
		})
	}
}
