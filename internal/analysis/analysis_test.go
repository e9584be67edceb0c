package analysis

import (
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestSummarizeFig2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(f.Model, out.Schedule)
	// The optimal Fig2 schedule: 3 requests; U2 and U3 hit caches (U3
	// locally), U1 from the warehouse; 2 copies.
	if rep.Requests != 3 {
		t.Errorf("requests = %d", rep.Requests)
	}
	if rep.CacheHits != 2 || rep.WarehouseHit != 1 || rep.LocalHits != 1 {
		t.Errorf("hits: cache=%d local=%d vw=%d", rep.CacheHits, rep.LocalHits, rep.WarehouseHit)
	}
	if rep.Copies != 2 {
		t.Errorf("copies = %d", rep.Copies)
	}
	if got := rep.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %g", got)
	}
	// Network volume: VW->IS1 (1 hop) + IS1->IS2 (1 hop) + local (0 hops)
	// = 2 × 4.05 GB; all-direct would be 1 + 2 + 2 = 5 hops × 4.05 GB.
	vol := 4.05e9
	if got := rep.StreamBytes.Float(); got != 2*vol {
		t.Errorf("stream bytes = %g, want %g", got, 2*vol)
	}
	if got := rep.DirectBytes.Float(); got != 5*vol {
		t.Errorf("direct bytes = %g, want %g", got, 5*vol)
	}
	if got := rep.NetworkSavings().Float(); got != 3*vol {
		t.Errorf("savings = %g", got)
	}
	// Cost identities.
	if !rep.TotalCost.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("total = %v", rep.TotalCost)
	}
	if !rep.DirectCost.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("direct = %v", rep.DirectCost)
	}
	if !rep.CostSavings().ApproxEqual(units.Money(150.75), 1e-6) {
		t.Errorf("cost savings = %v", rep.CostSavings())
	}
	// Node stats: IS1 and IS2 each host one copy serving one request.
	if len(rep.Nodes) != 2 {
		t.Fatalf("nodes = %+v", rep.Nodes)
	}
	for _, st := range rep.Nodes {
		if st.Copies != 1 || st.Served != 1 {
			t.Errorf("node %s: %+v", st.Name, st)
		}
		if st.PeakBytes != 2.5e9 {
			t.Errorf("node %s peak = %g", st.Name, st.PeakBytes)
		}
		if st.ByteSeconds <= 0 || st.StorageCost <= 0 {
			t.Errorf("node %s usage: %+v", st.Name, st)
		}
	}
	// Video stats.
	if len(rep.Videos) != 1 || rep.Videos[0].Requests != 3 || rep.Videos[0].CacheHits != 2 {
		t.Errorf("videos = %+v", rep.Videos)
	}
	if rep.Videos[0].Savings() <= 0 {
		t.Error("video savings not positive")
	}
}

func TestSummarizeDirectSchedule(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.RunDirect(f.Model, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(f.Model, out.Schedule)
	if rep.CacheHits != 0 || rep.Copies != 0 || rep.HitRate() != 0 {
		t.Error("direct schedule must have no cache activity")
	}
	if rep.StreamBytes != rep.DirectBytes {
		t.Error("direct schedule volume must equal the direct baseline")
	}
	if rep.CostSavings() != 0 {
		t.Errorf("direct savings = %v", rep.CostSavings())
	}
	if len(rep.Nodes) != 0 {
		t.Errorf("direct schedule nodes = %+v", rep.Nodes)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, nil, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(f.Model, out.Schedule)
	if rep.Requests != 0 || rep.HitRate() != 0 || rep.TotalCost != 0 {
		t.Errorf("empty report: %+v", rep)
	}
}

func TestWriteReport(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 5, 15, 8*units.GB, pricing.PerGBHour(2), pricing.PerGB(400), 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(rig.Model, out.Schedule)
	var sb strings.Builder
	if err := rep.Write(&sb, 3); err != nil {
		t.Fatal(err)
	}
	outStr := sb.String()
	for _, want := range []string{"requests", "network volume", "total cost", "vs all-direct"} {
		if !strings.Contains(outStr, want) {
			t.Errorf("report missing %q:\n%s", want, outStr)
		}
	}
	if rep.Copies > 0 && !strings.Contains(outStr, "busiest storages") {
		t.Error("busiest storages section missing")
	}
	// Ordering: nodes sorted by Served descending.
	for i := 1; i < len(rep.Nodes); i++ {
		if rep.Nodes[i].Served > rep.Nodes[i-1].Served {
			t.Error("nodes not sorted by served")
		}
	}
	for i := 1; i < len(rep.Videos); i++ {
		if rep.Videos[i].TotalCost > rep.Videos[i-1].TotalCost {
			t.Error("videos not sorted by cost")
		}
	}
}

func TestSummarizeSeededSchedule(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	seed := schedule.Residency{
		Video: 0, Loc: f.IS2, Src: f.Topo.Warehouse(),
		Load: 0, LastService: simtime.Time(12 * simtime.Hour),
		FedBy: schedule.PrePlacedFeed,
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{
		Seeds: map[media.VideoID][]schedule.Residency{0: {seed}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(f.Model, out.Schedule)
	if rep.PrePlacedCopies != 1 {
		t.Errorf("pre-placed copies = %d", rep.PrePlacedCopies)
	}
	// Per-video totals include the pre-load, so they sum to Ψ(S).
	var perVideo float64
	for _, vs := range rep.Videos {
		perVideo += float64(vs.TotalCost)
	}
	if !rep.TotalCost.ApproxEqual(out.FinalCost, 1e-6) {
		t.Errorf("report total %v != Ψ(S) %v", rep.TotalCost, out.FinalCost)
	}
	if !rep.TotalCost.ApproxEqual(vspMoney(perVideo), 1e-6) {
		t.Errorf("per-video sum %g != total %v", perVideo, rep.TotalCost)
	}
}

type vspMoney = units.Money
