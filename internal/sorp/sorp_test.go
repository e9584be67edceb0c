package sorp

import (
	"math"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// tightRig builds a scenario engineered to overflow: a chain VW - IS1 with
// IS1 sized for ONE 2.5 GB copy, two distinct titles requested by two users
// each at overlapping times. Phase 1 caches both titles at IS1 (it assumes
// unbounded capacity), which over-commits IS1.
func tightRig(t *testing.T) (*cost.Model, *topology.Topology, workload.Set) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 3*units.GB) // fits one 2.5 GB copy, not two
	b.Connect(vw, is1)
	b.AttachUsers(is1, 4)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, 0, testutil.CentsPerMbit(0.2))
	if err := book.SetSRate(is1, pricing.PerGBHour(1)); err != nil {
		t.Fatal(err)
	}
	table := routing.NewTable(book)
	m := cost.NewModel(book, table, cat)

	us := topo.UsersAt(is1)
	h := simtime.Time(simtime.Hour)
	reqs := workload.Set{
		{User: us[0], Video: 0, Start: 0},
		{User: us[1], Video: 0, Start: 4 * h},
		{User: us[2], Video: 1, Start: 1 * h},
		{User: us[3], Video: 1, Start: 5 * h},
	}
	return m, topo, reqs
}

func phase1(t *testing.T, m *cost.Model, reqs workload.Set) *schedule.Schedule {
	t.Helper()
	s := schedule.New()
	for vid, rs := range reqs.ByVideo() {
		fs, err := ivs.ScheduleFile(m, vid, rs, ivs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
	}
	return s
}

func TestPhase1OverCommitsTightStorage(t *testing.T) {
	m, topo, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	ledger := occupancy.FromSchedule(topo, m.Catalog(), s)
	ovs := ledger.AllOverflows()
	if len(ovs) == 0 {
		t.Fatal("expected phase 1 to overflow the 3 GB storage with two cached titles")
	}
}

func TestResolveEliminatesOverflows(t *testing.T) {
	m, topo, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	for _, metric := range []HeatMetric{Period, PeriodPerCost, Space, SpacePerCost} {
		t.Run(metric.String(), func(t *testing.T) {
			res, err := Resolve(m, s, reqs.ByVideo(), Options{Metric: metric})
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			ledger := occupancy.FromSchedule(topo, m.Catalog(), res.Schedule)
			if ovs := ledger.AllOverflows(); len(ovs) != 0 {
				t.Fatalf("overflows remain: %v", ovs)
			}
			if err := res.Schedule.Validate(topo, m.Catalog(), reqs); err != nil {
				t.Fatalf("resolved schedule invalid: %v", err)
			}
			if res.InitialOverflows == 0 {
				t.Error("InitialOverflows = 0, expected > 0")
			}
			if len(res.Victims) == 0 {
				t.Error("no victims recorded")
			}
			if res.CostAfter < res.CostBefore {
				// Possible in principle (greedy phase 1 is not optimal)
				// but on this rig rescheduling must cost extra.
				t.Errorf("cost decreased: %v -> %v", res.CostBefore, res.CostAfter)
			}
			if res.Delta() != res.CostAfter-res.CostBefore {
				t.Error("Delta inconsistent")
			}
		})
	}
}

func TestResolveInputUnmodified(t *testing.T) {
	m, _, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	before := m.ScheduleCost(s)
	nres := s.NumResidencies()
	if _, err := Resolve(m, s, reqs.ByVideo(), Options{}); err != nil {
		t.Fatal(err)
	}
	if m.ScheduleCost(s) != before || s.NumResidencies() != nres {
		t.Error("Resolve modified its input schedule")
	}
}

func TestResolveNoopWithoutOverflow(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := phase1(t, f.Model, f.Requests)
	res, err := Resolve(f.Model, s, f.Requests.ByVideo(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialOverflows != 0 || len(res.Victims) != 0 {
		t.Errorf("unexpected resolution activity: %+v", res)
	}
	if res.CostAfter != res.CostBefore {
		t.Error("cost changed without overflows")
	}
}

func TestResolveRequestMismatch(t *testing.T) {
	m, _, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	bad := reqs.ByVideo()
	bad[0] = bad[0][:1] // drop a request for video 0
	if _, err := Resolve(m, s, bad, Options{}); err == nil {
		t.Error("expected error for request/schedule mismatch")
	}
}

func TestVictimAvoidsBannedWindow(t *testing.T) {
	m, topo, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	res, err := Resolve(m, s, reqs.ByVideo(), Options{Metric: SpacePerCost})
	if err != nil {
		t.Fatal(err)
	}
	// The victim's new schedule must not occupy the banned window.
	for _, v := range res.Victims {
		fs := res.Schedule.File(v.Video)
		playback := m.Catalog().Video(v.Video).Playback
		for _, c := range fs.Residencies {
			bn := occupancy.Banned{Node: v.Node, Interval: v.Window}
			if bn.Violates(c, playback) {
				t.Errorf("victim %d re-cached into banned window %v at node %d", v.Video, v.Window, v.Node)
			}
		}
	}
	if topo.NumNodes() == 0 {
		t.Fatal("sanity")
	}
}

func TestComputeHeatMetrics(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	m := f.Model
	P := m.Catalog().Video(0).Playback
	ci := schedule.Residency{
		Video: 0, Loc: f.IS1, Src: f.VW,
		Load: 0, LastService: simtime.Time(2 * P),
	}
	of := occupancy.Overflow{
		Node:     f.IS1,
		Interval: simtime.NewInterval(simtime.Time(P), simtime.Time(3*P)),
	}
	// Improved window: [max(P, 0), min(3P, 2P+P)] = [P, 3P], X = 2P.
	x := computeHeat(m, ci, of, units.Money(10), Period)
	if math.Abs(x-2*P.Seconds()) > 1e-9 {
		t.Errorf("Period heat = %g, want %g", x, 2*P.Seconds())
	}
	x2 := computeHeat(m, ci, of, units.Money(10), PeriodPerCost)
	if math.Abs(x2-x/10) > 1e-9 {
		t.Errorf("PeriodPerCost heat = %g, want %g", x2, x/10)
	}
	s3 := computeHeat(m, ci, of, units.Money(10), Space)
	// Space over [P, 3P]: plateau [P, 2P] full size + decay [2P, 3P] half:
	// size·P + size·P/2.
	size := m.Catalog().Video(0).Size.Float()
	want := size*P.Seconds() + size*P.Seconds()/2
	if math.Abs(s3-want) > 1 {
		t.Errorf("Space heat = %g, want %g", s3, want)
	}
	s4 := computeHeat(m, ci, of, units.Money(10), SpacePerCost)
	if math.Abs(s4-s3/10) > 1e-6 {
		t.Errorf("SpacePerCost heat = %g", s4)
	}
	// Non-positive overhead => infinite heat for per-cost metrics.
	if !math.IsInf(computeHeat(m, ci, of, 0, SpacePerCost), 1) {
		t.Error("zero overhead must be infinitely hot")
	}
	if !math.IsInf(computeHeat(m, ci, of, units.Money(-5), PeriodPerCost), 1) {
		t.Error("negative overhead must be infinitely hot")
	}
	// Disjoint overflow window: zero heat.
	far := occupancy.Overflow{Node: f.IS1, Interval: simtime.NewInterval(simtime.Time(10*P), simtime.Time(11*P))}
	if h := computeHeat(m, ci, far, units.Money(10), Period); h != 0 {
		t.Errorf("disjoint heat = %g, want 0", h)
	}
}

// TestComputeHeatZeroImprovementNotInfinite is the regression test for the
// free-but-useless candidate bug: a residency whose improved window is
// disjoint from the overflow (X = 0, ΔS = 0) combined with a non-positive
// overhead used to hit the 0/overhead branch of the per-cost metrics and
// come back +Inf — outranking every genuine victim while shrinking nothing.
// Zero improvement must clamp heat to 0 for every metric and any overhead.
func TestComputeHeatZeroImprovementNotInfinite(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	m := f.Model
	P := m.Catalog().Video(0).Playback
	ci := schedule.Residency{
		Video: 0, Loc: f.IS1, Src: f.VW,
		Load: 0, LastService: simtime.Time(2 * P),
	}
	// Overflow window entirely after the residency's presence: improvement 0.
	far := occupancy.Overflow{
		Node:     f.IS1,
		Interval: simtime.NewInterval(simtime.Time(10*P), simtime.Time(11*P)),
	}
	for _, metric := range []HeatMetric{Period, PeriodPerCost, Space, SpacePerCost} {
		for _, overhead := range []units.Money{-5, 0, 10} {
			h := computeHeat(m, ci, far, overhead, metric)
			if h != 0 {
				t.Errorf("%v heat with overhead %v = %g, want 0 (zero improvement)",
					metric, overhead, h)
			}
		}
	}
}

// TestIterationBoundTracksLiveSchedule is the regression test for the
// frozen-bound bug: the default safety valve used to be computed once from
// the INPUT schedule's residency count, but rescheduling a victim may grow
// residencies (the rejective greedy spreads copies across storages), so a
// legitimately convergent run could trip the stale bound. The default must
// follow the live schedule and the request total.
func TestIterationBoundTracksLiveSchedule(t *testing.T) {
	m, _, reqs := tightRig(t)
	s := phase1(t, m, reqs)
	nreq := len(reqs)

	before := iterationBound(s, nreq)
	if want := 10 * (s.NumResidencies() + nreq + 1); before != want {
		t.Errorf("default bound = %d, want %d", before, want)
	}

	// Grow the live schedule the way a reschedule does and the default
	// bound must grow with it.
	grown := s.Clone()
	fs := grown.File(0)
	fs.Residencies = append(fs.Residencies, schedule.Residency{
		Video: 0, Loc: fs.Residencies[0].Loc, Src: fs.Residencies[0].Src,
		Load: simtime.Time(20 * simtime.Hour), LastService: simtime.Time(21 * simtime.Hour),
	})
	after := iterationBound(grown, nreq)
	if after <= before {
		t.Errorf("default bound did not track live schedule: %d -> %d", before, after)
	}
}

// TestResolveDefaultBoundSurvivesResidencyGrowth runs resolution with the
// iteration bound on rigs tight enough that victims get
// re-spread into more residencies than phase 1 produced; the run must
// converge, not trip the safety valve.
func TestResolveDefaultBoundSurvivesResidencyGrowth(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBSec(5), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New()
	for vid, rs := range reqs.ByVideo() {
		fs, err := ivs.ScheduleFile(rig.Model, vid, rs, ivs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
	}
	res, err := Resolve(rig.Model, s, reqs.ByVideo(), Options{})
	if err != nil {
		t.Fatalf("Resolve with default bound: %v", err)
	}
	ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, res.Schedule)
	if ovs := ledger.AllOverflows(); len(ovs) != 0 {
		t.Fatalf("%d overflows remain", len(ovs))
	}
}

func TestHeatMetricString(t *testing.T) {
	names := map[HeatMetric]string{
		Period: "period", PeriodPerCost: "period-per-cost",
		Space: "space", SpacePerCost: "space-per-cost",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if HeatMetric(0).String() != "HeatMetric(0)" {
		t.Error("unknown metric string")
	}
}

// TestResolveManyFilesTightStorage is an integration-scale stress: several
// titles, several neighborhoods, capacities sized to force multiple
// overflows, all four metrics must fully resolve.
func TestResolveManyFilesTightStorage(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBSec(5), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New()
	for vid, rs := range reqs.ByVideo() {
		fs, err := ivs.ScheduleFile(rig.Model, vid, rs, ivs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
	}
	for _, metric := range []HeatMetric{Period, PeriodPerCost, Space, SpacePerCost} {
		res, err := Resolve(rig.Model, s, reqs.ByVideo(), Options{Metric: metric})
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, res.Schedule)
		if ovs := ledger.AllOverflows(); len(ovs) != 0 {
			t.Fatalf("%v: %d overflows remain", metric, len(ovs))
		}
		if err := res.Schedule.Validate(rig.Topo, rig.Catalog, reqs); err != nil {
			t.Fatalf("%v: invalid schedule: %v", metric, err)
		}
	}
}

// TestResolveWithImmovableSeeds exercises the strategic-replication path:
// a standing copy occupies most of a tight storage, phase 1 over-commits
// it with dynamic copies, and resolution must strip ONLY the dynamic
// copies — the seed survives and the schedule ends overflow-free.
func TestResolveWithImmovableSeeds(t *testing.T) {
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 4*units.GB) // seed (2.5 GB) + <2.5 GB headroom
	b.Connect(vw, is1)
	b.AttachUsers(is1, 4)
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

	seed := schedule.Residency{
		Video: 0, Loc: is1, Src: vw,
		Load: 0, LastService: simtime.Time(12 * simtime.Hour),
		FedBy: schedule.PrePlacedFeed,
	}
	seeds := map[media.VideoID][]schedule.Residency{0: {seed}}

	us := topo.UsersAt(is1)
	h := simtime.Time(simtime.Hour)
	reqs := workload.Set{
		{User: us[0], Video: 0, Start: 1 * h}, // served from the seed
		{User: us[1], Video: 0, Start: 5 * h},
		{User: us[2], Video: 1, Start: 1 * h}, // wants a dynamic copy: overflows
		{User: us[3], Video: 1, Start: 5 * h},
	}
	s := schedule.New()
	for vid, rs := range reqs.ByVideo() {
		fs, err := ivs.ScheduleFile(m, vid, rs, ivs.Options{Seeds: seeds[vid]})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
	}
	ledger := occupancy.FromSchedule(topo, cat, s)
	if len(ledger.AllOverflows()) == 0 {
		t.Skip("phase 1 did not overflow; adjust rig")
	}
	res, err := Resolve(m, s, reqs.ByVideo(), Options{Seeds: seeds})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	after := occupancy.FromSchedule(topo, cat, res.Schedule)
	if ovs := after.AllOverflows(); len(ovs) != 0 {
		t.Fatalf("overflows remain: %v", ovs)
	}
	if err := res.Schedule.Validate(topo, cat, reqs); err != nil {
		t.Fatalf("resolved schedule invalid: %v", err)
	}
	// The seed survived and still serves video 0.
	fs0 := res.Schedule.File(0)
	foundSeed := false
	for j, c := range fs0.Residencies {
		if c.FedBy == schedule.PrePlacedFeed {
			foundSeed = true
			if len(fs0.Readers()[j]) == 0 {
				t.Error("seed lost its services during resolution")
			}
		}
	}
	if !foundSeed {
		t.Error("resolution stripped the immovable seed")
	}
	// No victim record names a pre-placed copy's video-0 residency as the
	// removed entity in a way that dropped it; video 1 must have been the
	// victim (its dynamic copy cannot coexist with the seed).
	if len(res.Victims) == 0 {
		t.Fatal("no victims recorded")
	}
	for _, v := range res.Victims {
		if v.Video != 1 {
			t.Errorf("unexpected victim video %d", v.Video)
		}
	}
}
