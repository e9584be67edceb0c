package repair

import (
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/vodsim"
	"github.com/vodsim/vsp/internal/workload"
)

func minutes(x int) simtime.Time { return simtime.Time(simtime.Duration(x) * simtime.Minute) }

func checkBookkeeping(t *testing.T, res *Result) {
	t.Helper()
	if res.Repaired+len(res.Missed) != res.Impacted {
		t.Errorf("bookkeeping: repaired %d + missed %d != impacted %d",
			res.Repaired, len(res.Missed), res.Impacted)
	}
	if res.FromCache+res.FromVW != res.Repaired {
		t.Errorf("bookkeeping: cache %d + vw %d != repaired %d",
			res.FromCache, res.FromVW, res.Repaired)
	}
}

// TestEmptyScenarioIdentity: repairing under no faults must return a
// schedule identical to the input with a zero cost delta.
func TestEmptyScenarioIdentity(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*faults.Scenario{nil, {}, {Faults: []faults.Fault{{Kind: faults.LinkDown, From: 5, Until: 5}}}} {
		res, err := Repair(f.Model, out.Schedule, sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Schedule, out.Schedule) {
			t.Errorf("empty scenario changed the schedule")
		}
		if res.Delta() != 0 || res.Impacted != 0 || res.Repaired != 0 || len(res.Missed) != 0 {
			t.Errorf("empty scenario not a no-op: %+v", res)
		}
		checkBookkeeping(t, res)
	}
}

// TestSingleOutageLiveVWZeroMissed is the acceptance scenario: one
// intermediate storage fails while the warehouse stays up, and repair
// re-sources every knocked-out future service with zero misses and a
// quantified cost delta.
func TestSingleOutageLiveVWZeroMissed(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Faults: []faults.Fault{{
		Kind: faults.NodeOutage, Node: f.IS1, From: minutes(30), Until: minutes(60),
	}}}
	for _, pol := range []Policy{Reroute, VWDirect} {
		res, err := Repair(f.Model, out.Schedule, sc, Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		checkBookkeeping(t, res)
		// The outage severs the in-flight t=0 stream (unrecoverable) and
		// knocks out the 90m and 180m services; both must be repaired.
		if len(res.Missed) != 0 {
			t.Fatalf("%v: missed services after repair: %+v", pol, res.Missed)
		}
		if res.Impacted != 2 || res.Repaired != 2 || res.Severed != 1 {
			t.Errorf("%v: impacted=%d repaired=%d severed=%d, want 2/2/1", pol, res.Impacted, res.Repaired, res.Severed)
		}
		if res.Delta() == 0 {
			t.Errorf("%v: repair reported a zero cost delta for a lossy scenario", pol)
		}
		t.Logf("%v: cost %.4f -> %.4f (delta %+.4f), copies=%d hit=%.0f%%",
			pol, float64(res.CostBefore), float64(res.CostAfter), float64(res.Delta()), res.Copies, res.HitRatePct)
		// The repaired schedule must actually survive the same scenario.
		rep := vodsim.ExecuteScenario(f.Model.Book(), f.Model.Catalog(), res.Schedule, sc)
		if !rep.OK() {
			t.Fatalf("%v: repaired schedule has violations: %v", pol, rep.Violations)
		}
		if rep.Missed != 0 {
			t.Errorf("%v: re-simulating repaired schedule still misses %d services\nnotes: %v", pol, rep.Missed, rep.FaultNotes)
		}
	}
}

// triangle builds VW—IS1—IS2 plus a direct VW—IS2 edge, so the warehouse
// keeps an access route to IS2 users whatever happens to IS1.
type triangle struct {
	topo          *topology.Topology
	model         *cost.Model
	vw, is1, is2  topology.NodeID
	e01, e12, e02 int
	reqs          workload.Set
}

// newTriangle builds the rig; directRate prices the VW—IS2 shortcut (the
// other edges cost 0.1 ¢/Mbit).
func newTriangle(t *testing.T, directRate pricing.NRate) *triangle {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.Connect(vw, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(1, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(0.05), testutil.CentsPerMbit(0.1))
	e01, _ := topo.EdgeBetween(vw, is1)
	e12, _ := topo.EdgeBetween(is1, is2)
	e02, _ := topo.EdgeBetween(vw, is2)
	book.SetNRate(e02, directRate)
	model := cost.NewModel(book, routing.NewTable(book), cat)
	u1 := topo.UsersAt(is1)[0]
	u2 := topo.UsersAt(is2)[0]
	return &triangle{
		topo: topo, model: model, vw: vw, is1: is1, is2: is2,
		e01: e01, e12: e12, e02: e02,
		reqs: workload.Set{
			{User: u1, Video: 0, Start: 0},
			{User: u1, Video: 0, Start: minutes(90)},
			{User: u2, Video: 0, Start: minutes(180)},
		},
	}
}

// TestVWDirectFallbackNeverMisses: as long as the warehouse is admitting
// and the victim's access route survives its playback window, the
// vw-direct policy repairs every impacted service — across outage shapes.
func TestVWDirectFallbackNeverMisses(t *testing.T) {
	cases := []struct {
		name string
		mk   func(tr *triangle) []faults.Fault
	}{
		{"IS1 outage before repairs", func(tr *triangle) []faults.Fault {
			return []faults.Fault{{Kind: faults.NodeOutage, Node: tr.is1, From: minutes(30), Until: minutes(60)}}
		}},
		{"feed link cut mid-stream", func(tr *triangle) []faults.Fault {
			return []faults.Fault{{Kind: faults.LinkDown, Edge: tr.e01, From: minutes(10), Until: minutes(50)}}
		}},
		{"outage plus lasting link failure", func(tr *triangle) []faults.Fault {
			return []faults.Fault{
				{Kind: faults.NodeOutage, Node: tr.is1, From: minutes(30), Until: minutes(60)},
				{Kind: faults.LinkDown, Edge: tr.e12, From: minutes(80), Until: minutes(300)},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTriangle(t, testutil.CentsPerMbit(0.1))
			out, err := scheduler.Run(tr.model, tr.reqs, scheduler.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sc := &faults.Scenario{Faults: tc.mk(tr)}
			res, err := Repair(tr.model, out.Schedule, sc, Options{Policy: VWDirect})
			if err != nil {
				t.Fatal(err)
			}
			checkBookkeeping(t, res)
			if res.Impacted == 0 {
				t.Fatal("scenario did not impact the schedule; test proves nothing")
			}
			if len(res.Missed) != 0 {
				t.Fatalf("vw-direct fallback missed services: %+v", res.Missed)
			}
			rep := vodsim.ExecuteScenario(tr.model.Book(), tr.model.Catalog(), res.Schedule, sc)
			if !rep.OK() {
				t.Fatalf("repaired schedule has violations: %v", rep.Violations)
			}
			if rep.Missed != 0 {
				t.Errorf("re-simulation misses %d services\nnotes: %v", rep.Missed, rep.FaultNotes)
			}
		})
	}
}

// TestRerouteUsesSurvivingCopy: when the warehouse is browned out at
// service time but a surviving cached copy can reach the user around the
// dead link, the reroute policy saves the service and vw-direct cannot.
func TestRerouteUsesSurvivingCopy(t *testing.T) {
	tr := newTriangle(t, testutil.CentsPerMbit(1.0)) // pricey shortcut: greedy serves IS2 via IS1
	out, err := scheduler.Run(tr.model, tr.reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Precondition: the 180m service is cache-sourced over IS1—IS2.
	fs := out.Schedule.File(0)
	if fs == nil {
		t.Fatal("no schedule for video 0")
	}
	var found bool
	for _, d := range fs.Deliveries {
		if d.Start == minutes(180) && d.SourceResidency != schedule.NoResidency {
			found = true
		}
	}
	if !found {
		t.Fatalf("precondition: 180m service not cache-sourced; schedule %+v", fs)
	}
	sc := &faults.Scenario{Faults: []faults.Fault{
		{Kind: faults.LinkDown, Edge: tr.e12, From: minutes(175), Until: minutes(185)},
		{Kind: faults.VWBrownout, From: minutes(175), Until: minutes(185)},
	}}
	res, err := Repair(tr.model, out.Schedule, sc, Options{Policy: Reroute})
	if err != nil {
		t.Fatal(err)
	}
	checkBookkeeping(t, res)
	if len(res.Missed) != 0 {
		t.Fatalf("reroute missed services: %+v", res.Missed)
	}
	if res.FromCache != 1 {
		t.Errorf("reroute served %d from cache, want 1 (IS1 copy around the dead link)", res.FromCache)
	}
	rep := vodsim.ExecuteScenario(tr.model.Book(), tr.model.Catalog(), res.Schedule, sc)
	if !rep.OK() || rep.Missed != 0 {
		t.Fatalf("re-simulation: ok=%v missed=%d violations=%v notes=%v", rep.OK(), rep.Missed, rep.Violations, rep.FaultNotes)
	}

	vres, err := Repair(tr.model, out.Schedule, sc, Options{Policy: VWDirect})
	if err != nil {
		t.Fatal(err)
	}
	checkBookkeeping(t, vres)
	if len(vres.Missed) != 1 {
		t.Errorf("vw-direct under brown-out: missed %+v, want exactly the 180m service", vres.Missed)
	}
}
