package scheduler_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// TestCheckIsTheCommitPredicate pins the predicate's verdict on one
// committable schedule and on one schedule broken in each way the predicate
// exists to catch, and requires audit.Run — which reports the predicate's two
// halves as its "validate" and "capacity" findings — to agree on every input.
// A malformed schedule stops both at the structural finding: the capacity
// half, the simulator and billing index by what that finding says is broken.
func TestCheckIsTheCommitPredicate(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages:        6,
		UsersPerStorage: 4,
		RequestsPerUser: 3,
		Titles:          20,
		CapacityGB:      2, // tight: the raw phase-1 schedule overflows
		Seed:            42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resolved, err := scheduler.Schedule(ctx, r.Model, r.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved.Victims) == 0 {
		t.Fatal("rig is not tight enough: nothing was resolved")
	}
	raw, err := scheduler.Schedule(ctx, r.Model, r.Requests, scheduler.Config{SkipResolution: true})
	if err != nil {
		t.Fatalf("SkipResolution must return the over-committed schedule, not judge it: %v", err)
	}

	// A delivery pointed at a residency index its file does not have.
	dangle := func(s *schedule.Schedule) *schedule.Schedule {
		s = s.Clone()
		for _, vid := range s.VideoIDs() {
			fs := s.Files[vid]
			for i := range fs.Deliveries {
				if fs.Deliveries[i].SourceResidency != schedule.NoResidency {
					fs.Deliveries[i].SourceResidency = len(fs.Residencies)
					return s
				}
			}
		}
		t.Fatal("schedule serves nothing from a cache")
		return nil
	}
	dangling := dangle(resolved.Schedule)

	unserved := append(append(workload.Set(nil), r.Requests...), r.Requests[0])
	unserved[len(unserved)-1].Start++ // a reservation the schedule has no delivery for

	for _, tc := range []struct {
		name                         string
		sched                        *schedule.Schedule
		served                       workload.Set
		invalid, malformed, overflow bool
	}{
		{"resolved schedule", resolved.Schedule, r.Requests, false, false, false},
		{"request left unserved", resolved.Schedule, unserved, true, false, false},
		{"delivery from a missing residency", dangling, r.Requests, true, true, false},
		{"over capacity", raw.Schedule, r.Requests, false, false, true},
		{"over capacity and unserved: both halves report", raw.Schedule, unserved, true, false, true},
		{"over capacity and malformed: the capacity half is not run", dangle(raw.Schedule), r.Requests, true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := scheduler.Check(r.Topo, r.Catalog, tc.sched, tc.served)
			if (v.Invalid != nil) != tc.invalid || v.Malformed != tc.malformed {
				t.Errorf("Invalid = %v (malformed=%v), want invalid=%v malformed=%v", v.Invalid, v.Malformed, tc.invalid, tc.malformed)
			}
			if (len(v.Overflows) > 0) != tc.overflow {
				t.Errorf("%d overflows, want overflow=%v", len(v.Overflows), tc.overflow)
			}
			if committable := v.Err() == nil; committable != (!tc.invalid && !tc.overflow) {
				t.Errorf("Err() = %v", v.Err())
			}
			// Not a weaker bar than when both halves always ran: where that
			// formula returns at all, Err() is the same.
			both := scheduler.Verdict{
				Invalid:   tc.sched.Validate(r.Topo, r.Catalog, tc.served),
				Overflows: scheduler.Overflows(r.Topo, r.Catalog, tc.sched),
			}
			if got, want := fmt.Sprint(v.Err()), fmt.Sprint(both.Err()); got != want {
				t.Errorf("Err() = %s, with both halves always run it was %s", got, want)
			}
			if tc.overflow && len(v.Overflows) != raw.Overflows {
				t.Errorf("rebuilt ledger finds %d overflows, the solver counted %d", len(v.Overflows), raw.Overflows)
			}

			rep := audit.Run(r.Model, tc.sched, tc.served)
			found := map[string]string{}
			for _, f := range rep.Findings {
				found[f.Check] = f.Detail
			}
			if detail, ok := found["validate"]; ok != tc.invalid || (ok && detail != v.Invalid.Error()) {
				t.Errorf("audit validate finding %q (present=%v) disagrees with Invalid = %v", detail, ok, v.Invalid)
			}
			if _, ok := found["capacity"]; ok != tc.overflow || rep.Overflows != len(v.Overflows) {
				t.Errorf("audit capacity finding present=%v with %d overflows, predicate has %d", ok, rep.Overflows, len(v.Overflows))
			}
			if tc.malformed && (len(rep.Findings) != 1 || rep.Findings[0].Check != "validate") {
				t.Errorf("audit of a malformed schedule went past the structural finding: %v", rep.Findings)
			}
		})
	}
}
