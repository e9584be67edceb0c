package scheduler_test

import (
	"context"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// A rolling close asks its bar whether the phase-1 schedule overflows, which
// moves the bar's kept ledger to that schedule. When SORP then fails — here
// two standing copies, which it may not move, overfill a storage between
// them — the close commits nothing, and the bar holds the held schedule
// again, as a fresh build of it would.
func TestRollingCloseThatFailsMovesTheBarBack(t *testing.T) {
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 4*units.GB)
	b.Connect(vw, is1)
	b.AttachUsers(is1, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), testutil.CentsPerMbit(0.2))
	m := cost.NewModel(book, routing.NewTable(book), cat)

	seeds := make(map[media.VideoID][]schedule.Residency)
	for vid := range media.VideoID(2) {
		seeds[vid] = []schedule.Residency{{Video: vid, Loc: is1, Src: vw,
			LastService: simtime.Time(12 * simtime.Hour), FedBy: schedule.PrePlacedFeed}}
	}
	us := topo.UsersAt(is1)
	reqs := workload.Set{{User: us[0], Video: 0, Start: simtime.Time(simtime.Hour)},
		{User: us[1], Video: 1, Start: simtime.Time(simtime.Hour)}}

	held := schedule.New()
	var bar scheduler.Checker
	if err := bar.Check(topo, cat, held, nil).Err(); err != nil {
		t.Fatal(err)
	}
	_, err = scheduler.Solve(context.Background(), m, reqs.ByVideo(),
		&scheduler.Rolling{Held: held, Bar: &bar}, scheduler.Config{Seeds: seeds})
	if err == nil || !strings.Contains(err.Error(), "no reschedulable victim") {
		t.Fatalf("the close over two immovable copies that overfill IS1 returned %v", err)
	}
	if d := occupancy.Diff(topo, bar.Ledger(), occupancy.FromSchedule(topo, cat, held)); d != "" {
		t.Fatalf("after the failed close the bar's ledger is not the held schedule's: %s", d)
	}
}
