package sorp

import (
	"context"
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/testutil"
)

// What a resolution allocates is what its victim evaluations keep: the
// greedy works in recycled scratch, views and overflow sets are reused from
// round to round, and probe storage comes from a free list. On
// BenchmarkSchedule's rig (500 requests, 50 titles) a warm ResolveContext
// allocates 2.04 MB, against 5.18 MB when each evaluation allocated its own
// working state; the budget is 1.25 times the former.
func TestResolveAllocationBudget(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 1.25 * 2.04e6
	r, err := testutil.Build(testutil.Params{
		Storages:        10,
		UsersPerStorage: 5,
		RequestsPerUser: 10,
		Titles:          50,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, reqs := phase1(t, r.Model, r.Requests), r.Requests.ByVideo()
	resolve := func() *Result {
		res, err := ResolveContext(context.Background(), r.Model, s, reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := resolve(); len(res.Victims) == 0 { // and fills the free lists
		t.Fatal("fixture bug: nothing to resolve on the rig")
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		resolve()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B per resolution", perRun)
	if perRun > budget {
		t.Errorf("a resolution allocates %.0f B, over the budget of %.0f", perRun, budget)
	}
}
