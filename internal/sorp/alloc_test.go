package sorp

import (
	"context"
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/testutil"
)

// What a resolution allocates is little more than its winners: the greedy
// works in recycled scratch, overflow sets are reused from round to round,
// views (event arrays included) come from a process-wide free list, probe
// logs copy the deltas they replay into recycled chunks and find their
// groups through recycled indexes, the pair table is the one the last run on
// the workspace left there, and every evaluation that is not committed hands
// its file back for a later one to be built in. On BenchmarkSchedule's rig
// (500 requests, 50 titles) a warm ResolveContext allocates 0.27 MB. It
// allocated 0.37 MB while each run built its pair table afresh and a probe
// took 32 bytes, 1.15 MB while uncommitted files went to the collector,
// 1.98 MB while logs shared the views' event slices copy-on-write and views
// were recycled per ledger, and 5.18 MB when each evaluation allocated its
// own working state. The budget is 1.25 times the first figure, which the
// second exceeds.
func TestResolveAllocationBudget(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 1.25 * 0.27e6
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
