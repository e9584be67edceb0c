package repair

import (
	"testing"

	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/vodsim"
)

// Repro: a copy whose feed is severed mid-fill survives in the skeleton
// (it has one surviving early reader), and resource() may pick it as the
// cheapest source for a later impacted service even though the copy only
// holds a prefix of the file.
func TestCascadeDeadCopyAsRepairSource(t *testing.T) {
	tr := newTriangle(t, 0.00001) // direct VW-IS2 rate irrelevant here
	vid := tr.model.Catalog().Video(0)
	_ = vid

	s := schedule.New()
	fs := &schedule.FileSchedule{Video: 0}
	u1 := tr.topo.UsersAt(tr.is1)[0]
	// Delivery 0 feeds the copy at IS1 from the VW.
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: u1, Start: 0,
		Route: routing.Route{tr.vw, tr.is1}, SourceResidency: schedule.NoResidency,
	})
	// Delivery 1: early reader at t=5m (keeps the copy in the skeleton).
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: u1, Start: minutes(5),
		Route: routing.Route{tr.is1}, SourceResidency: 0,
	})
	// Delivery 2: late reader at t=90m.
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: u1, Start: minutes(90),
		Route: routing.Route{tr.is1}, SourceResidency: 0,
	})
	fs.Residencies = append(fs.Residencies, schedule.Residency{
		Video: 0, Loc: tr.is1, Src: tr.vw, Load: 0, LastService: minutes(90),
		FedBy: 0,
	})
	s.Put(fs)

	// The feed link dies at t=10m: delivery 0 severed, the copy is dead at
	// 10m holding only a prefix; delivery 1 (in flight) survives, delivery
	// 2 is missed.
	sc := &faults.Scenario{Faults: []faults.Fault{
		{Kind: faults.LinkDown, Edge: tr.e01, From: minutes(10), Until: minutes(50)},
	}}

	res, err := Repair(tr.model, s, sc, Options{Policy: Reroute})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("impacted=%d repaired=%d fromCache=%d fromVW=%d missed=%d",
		res.Impacted, res.Repaired, res.FromCache, res.FromVW, len(res.Missed))

	rep := vodsim.ExecuteScenario(tr.model.Book(), tr.model.Catalog(), res.Schedule, sc)
	if rep.Missed != 0 {
		t.Errorf("re-simulation of repaired schedule misses %d services\nnotes: %v", rep.Missed, rep.FaultNotes)
	}
	if !rep.OK() {
		t.Errorf("violations: %v", rep.Violations)
	}
}
