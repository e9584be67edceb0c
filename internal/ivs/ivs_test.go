package ivs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
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

// TestGreedyBeatsPaperS2 is the paper-pinning test. On the Fig. 2 example
// the paper enumerates S1 (all direct, $259.20) and S2 (cache at IS1,
// $138.975) and picks S2. Our greedy — implementing the paper's own step
// "(2) introduce another intermediate storage" — additionally caches at IS2
// from U2's relay stream and serves U3 locally, giving an even cheaper
// schedule:
//
//	network 64.8 (VW→IS1) + 32.4 (IS1→IS2)  = $97.20
//	storage IS1 Δ=P: 2.5 GB·2.25 h·$1/GB·h  = $5.625
//	storage IS2 Δ=P:                        = $5.625
//	total                                   = $108.45
//
// The test pins that exact value and verifies the structure.
func TestGreedyBeatsPaperS2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{})
	if err != nil {
		t.Fatalf("ScheduleFile: %v", err)
	}
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(f.Topo, f.Model.Catalog(), f.Requests); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := f.Model.FileCost(fs)
	if float64(got) > 138.975+1e-6 {
		t.Errorf("greedy cost = %v, must not exceed the paper's S2 $138.975", got)
	}
	if !got.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("greedy cost = %v, want $108.45", got)
	}
	if len(fs.Residencies) != 2 {
		t.Fatalf("residencies = %d, want 2 (IS1 and IS2)", len(fs.Residencies))
	}
	byLoc := map[int]schedule.Residency{}
	for _, c := range fs.Residencies {
		byLoc[int(c.Loc)] = c
	}
	c1, ok1 := byLoc[int(f.IS1)]
	c2, ok2 := byLoc[int(f.IS2)]
	if !ok1 || !ok2 {
		t.Fatalf("expected caches at IS1 and IS2, got %v", fs.Residencies)
	}
	if c1.Load != 0 || c1.LastService != simtime.Time(90*simtime.Minute) {
		t.Errorf("IS1 window [%v, %v]", c1.Load, c1.LastService)
	}
	if c2.Load != simtime.Time(90*simtime.Minute) || c2.LastService != simtime.Time(180*simtime.Minute) {
		t.Errorf("IS2 window [%v, %v]", c2.Load, c2.LastService)
	}
	if len(c1.Services) != 1 || len(c2.Services) != 1 {
		t.Errorf("service lists: %v, %v", c1.Services, c2.Services)
	}
}

func TestDirectBaselineMatchesPaperS1(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{Policy: NoCaching})
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}
	if len(fs.Residencies) != 0 {
		t.Error("direct schedule must not cache")
	}
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("direct cost = %v, want $259.20 (paper S1)", got)
	}
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(f.Topo, f.Model.Catalog(), f.Requests); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGreedyNeverWorseThanDirect(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 5, 40, 10*units.GB, pricing.PerGBHour(1), testutil.CentsPerMbit(0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.271, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for vid, rs := range reqs.ByVideo() {
		greedy, err := ScheduleFile(rig.Model, vid, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ScheduleFile(rig.Model, vid, rs, Options{Policy: NoCaching})
		if err != nil {
			t.Fatal(err)
		}
		g, d := rig.Model.FileCost(greedy), rig.Model.FileCost(direct)
		if float64(g) > float64(d)+1e-6 {
			t.Errorf("video %d: greedy %v > direct %v", vid, g, d)
		}
	}
}

func TestGreedySchedulesAreValid(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 5, 40, 10*units.GB, pricing.PerGBHour(1), testutil.CentsPerMbit(0.2), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.New()
	for vid, rs := range reqs.ByVideo() {
		fs, err := ScheduleFile(rig.Model, vid, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
		// Pruned: every residency serves someone.
		for _, c := range fs.Residencies {
			if len(c.Services) == 0 {
				t.Errorf("video %d: unpruned tentative residency", vid)
			}
		}
	}
	if err := s.Validate(rig.Topo, rig.Catalog, reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSimultaneousCoLocatedRequestsShareStream(t *testing.T) {
	// Two users at the same storage requesting the same title at the same
	// time: the second rides the first's stream at zero extra cost.
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	u23 := f.Topo.UsersAt(f.IS2)
	reqs := workload.Set{
		{User: u23[0], Video: 0, Start: 1000},
		{User: u23[1], Video: 0, Start: 1000},
	}
	fs, err := ScheduleFile(f.Model, 0, reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneStream := f.Model.TransferCost(0, f.VW, f.IS2)
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(oneStream, 1e-6) {
		t.Errorf("cost = %v, want single stream %v", got, oneStream)
	}
}

func TestCacheAtDestinationPolicy(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{Policy: CacheAtDestination})
	if err != nil {
		t.Fatal(err)
	}
	// With destination-only caching, the first stream (to IS1) caches at
	// IS1 and U2's relay (to IS2) caches at IS2, so the $108.45 optimum is
	// still reachable on this topology.
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("cost = %v", got)
	}
	// But a remote chain can no longer cache upstream: U2's stream from
	// IS1 to IS2 caches at IS2 only.
	for _, c := range fs.Residencies {
		feed := fs.Deliveries[c.FedBy]
		if c.Loc != feed.Dst() {
			t.Errorf("destination-only policy cached at %d, feed dst %d", c.Loc, feed.Dst())
		}
	}
}

func TestBannedWindowForcesDirect(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	// Ban all storages for all time: greedy degenerates to direct.
	horizon := simtime.NewInterval(0, simtime.Time(24*simtime.Hour))
	opts := Options{Banned: []occupancy.Banned{
		{Node: f.IS1, Interval: horizon},
		{Node: f.IS2, Interval: horizon},
	}}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Residencies) != 0 {
		t.Errorf("banned everywhere: residencies = %d, want 0", len(fs.Residencies))
	}
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("cost = %v, want direct $259.20", got)
	}
}

func TestPartialBanShiftsCache(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	// Ban IS1 only: the greedy can still cache at IS2 (the stream to U2
	// passes it), serving U3 locally from that copy.
	horizon := simtime.NewInterval(0, simtime.Time(24*simtime.Hour))
	opts := Options{Banned: []occupancy.Banned{{Node: f.IS1, Interval: horizon}}}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fs.Residencies {
		if c.Loc == f.IS1 {
			t.Error("banned node still caches")
		}
	}
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(f.Topo, f.Model.Catalog(), f.Requests); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Must still beat all-direct: cache at IS2 saves U3's remote stream.
	direct, _ := ScheduleFile(f.Model, 0, f.Requests, Options{Policy: NoCaching})
	if f.Model.FileCost(fs) >= f.Model.FileCost(direct) {
		t.Errorf("banned-IS1 schedule %v not cheaper than direct %v",
			f.Model.FileCost(fs), f.Model.FileCost(direct))
	}
}

func TestLedgerConstraintRejectsFullStorage(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	// Fill IS1 and IS2 completely with another video's residencies for the
	// whole horizon. The greedy must fall back to direct streams.
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	_ = cat
	ledger := occupancy.NewLedger(f.Topo, f.Model.Catalog())
	blocker := schedule.Residency{
		Video: 0, Loc: f.IS1, Src: f.VW,
		Load: -1000, LastService: simtime.Time(48 * simtime.Hour),
	}
	// Fill capacity: 10 GB / 2.5 GB per copy = 4 copies.
	for i := 0; i < 4; i++ {
		ledger.Add(occupancy.Ref{Video: 99, Index: i}, blocker)
		b2 := blocker
		b2.Loc = f.IS2
		ledger.Add(occupancy.Ref{Video: 99, Index: 10 + i}, b2)
	}
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Residencies) != 0 {
		t.Errorf("full storages: residencies = %d, want 0", len(fs.Residencies))
	}
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("cost = %v, want direct $259.20", got)
	}
}

func TestLedgerReflectsFinalSchedule(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	ledger := occupancy.NewLedger(f.Topo, f.Model.Catalog())
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	// Every registered copy holds space at some time, so the candidate
	// victims over all of time are exactly the ledger's entries.
	var refs []occupancy.Ref
	for _, node := range f.Topo.Storages() {
		refs = ledger.OverflowSet(refs, node, simtime.NewInterval(math.MinInt64, math.MaxInt64))
	}
	if len(refs) != len(fs.Residencies) {
		t.Errorf("ledger entries = %v, schedule residencies = %d", refs, len(fs.Residencies))
	}
	for _, r := range refs {
		if r.Video != 0 || r.Index >= len(fs.Residencies) {
			t.Errorf("ledger entry %v is not a residency of the schedule", r)
		}
	}
	// The surviving residency occupies space in the ledger.
	if got := ledger.SpaceAt(f.IS1, simtime.Time(simtime.Hour)); got != units.GBf(2.5).Float() {
		t.Errorf("ledger space at IS1 = %g", got)
	}
}

func TestScheduleFileErrors(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ScheduleFile(f.Model, 0, workload.Set{{User: 0, Video: 5, Start: 0}}, Options{})
	if err == nil {
		t.Error("expected error for wrong-video request")
	}
	_, err = ScheduleFile(f.Model, 0, workload.Set{{User: 99, Video: 0, Start: 0}}, Options{})
	if err == nil {
		t.Error("expected error for unknown user")
	}
}

func TestEmptyRequestSet(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ScheduleFile(f.Model, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Deliveries) != 0 || len(fs.Residencies) != 0 {
		t.Error("empty request set must produce empty schedule")
	}
	if f.Model.FileCost(fs) != 0 {
		t.Error("empty schedule must cost 0")
	}
}

func TestUnsortedRequestsAreSorted(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	rev := workload.Set{f.Requests[2], f.Requests[0], f.Requests[1]}
	fs, err := ScheduleFile(f.Model, 0, rev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("cost with unsorted input = %v", got)
	}
}

func TestPolicyString(t *testing.T) {
	if CacheOnRoute.String() != "cache-on-route" ||
		CacheAtDestination.String() != "cache-at-destination" ||
		NoCaching.String() != "no-caching" {
		t.Error("Policy.String wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string")
	}
}

// TestGreedyPrefersCheapStorage pins the heterogeneous-rate behaviour:
// with two equally-placed caching sites, the greedy caches at the cheaper
// one.
func TestGreedyPrefersCheapStorage(t *testing.T) {
	// VW - IS1 - IS2, both users at IS2 so both IS1 and IS2 lie on every
	// VW stream's route; IS1's disk is 10x dearer than IS2's.
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(1, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, 0, testutil.CentsPerMbit(0.2))
	if err := book.SetSRate(is1, pricing.PerGBHour(10)); err != nil {
		t.Fatal(err)
	}
	if err := book.SetSRate(is2, pricing.PerGBHour(1)); err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(book, routing.NewTable(book), cat)
	us := topo.UsersAt(is2)
	reqs := workload.Set{
		{User: us[0], Video: 0, Start: 0},
		{User: us[1], Video: 0, Start: simtime.Time(3 * simtime.Hour)},
	}
	fs, err := ScheduleFile(m, 0, reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Residencies) != 1 {
		t.Fatalf("residencies = %d, want 1", len(fs.Residencies))
	}
	if fs.Residencies[0].Loc != is2 {
		t.Errorf("cached at %d, want the cheap IS2 (%d)", fs.Residencies[0].Loc, is2)
	}
}

// Property: the greedy is deterministic — scheduling the same inputs twice
// yields byte-identical schedules across random scenarios.
func TestPropertyGreedyDeterministic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rig, err := testutil.NewPaperRig(7, 6, 20, 6*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.15), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: seed + 11})
		if err != nil {
			t.Fatal(err)
		}
		for vid, rs := range reqs.ByVideo() {
			a, err := ScheduleFile(rig.Model, vid, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := ScheduleFile(rig.Model, vid, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Deliveries) != len(b.Deliveries) || len(a.Residencies) != len(b.Residencies) {
				t.Fatalf("seed %d video %d: nondeterministic shape", seed, vid)
			}
			for i := range a.Deliveries {
				if a.Deliveries[i].Start != b.Deliveries[i].Start ||
					a.Deliveries[i].SourceResidency != b.Deliveries[i].SourceResidency ||
					a.Deliveries[i].Src() != b.Deliveries[i].Src() {
					t.Fatalf("seed %d video %d: delivery %d differs", seed, vid, i)
				}
			}
			for j := range a.Residencies {
				if a.Residencies[j].Loc != b.Residencies[j].Loc ||
					a.Residencies[j].Load != b.Residencies[j].Load ||
					a.Residencies[j].LastService != b.Residencies[j].LastService {
					t.Fatalf("seed %d video %d: residency %d differs", seed, vid, j)
				}
			}
		}
	}
}

func TestSeedHandling(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	horizon := simtime.Time(12 * simtime.Hour)
	goodSeed := schedule.Residency{
		Video: 0, Loc: f.IS2, Src: f.VW,
		Load: 0, LastService: horizon, FedBy: schedule.PrePlacedFeed,
	}
	// Wrong-video seed.
	bad := goodSeed
	bad.Video = 7
	if _, err := ScheduleFile(f.Model, 0, f.Requests, Options{Seeds: []schedule.Residency{bad}}); err == nil {
		t.Error("expected error for wrong-video seed")
	}
	// Unmarked seed.
	bad = goodSeed
	bad.FedBy = 0
	if _, err := ScheduleFile(f.Model, 0, f.Requests, Options{Seeds: []schedule.Residency{bad}}); err == nil {
		t.Error("expected error for unmarked seed")
	}
	// A good seed at IS2 serves the IS2 requests locally for free AND even
	// U1 at IS1 — the IS2→IS1 hop (0.1 ¢/Mbit) undercuts the VW→IS1 hop
	// (0.2 ¢/Mbit). Total = one cheap relay + the seed's committed cost.
	fs, err := ScheduleFile(f.Model, 0, f.Requests, Options{Seeds: []schedule.Residency{goodSeed}})
	if err != nil {
		t.Fatal(err)
	}
	want := f.Model.TransferCost(0, f.IS2, f.IS1) +
		f.Model.ResidencyCost(goodSeed) + f.Model.PrePlacementCost(goodSeed)
	got := f.Model.FileCost(fs)
	if !got.ApproxEqual(want, 1e-6) {
		t.Errorf("seeded cost %v, want %v", got, want)
	}
	// Seed survives pruning and serves all three requests.
	seedFound := false
	for _, c := range fs.Residencies {
		if c.FedBy == schedule.PrePlacedFeed {
			seedFound = true
			if len(c.Services) != 3 {
				t.Errorf("seed services = %v, want all three requests", c.Services)
			}
		}
	}
	if !seedFound {
		t.Error("seed pruned")
	}
	// A request AFTER the seed's span cannot use it.
	lateReq := workload.Set{{User: f.Topo.UsersAt(f.IS2)[0], Video: 0, Start: horizon + 100}}
	fs2, err := ScheduleFile(f.Model, 0, lateReq, Options{Seeds: []schedule.Residency{goodSeed}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fs2.Deliveries {
		if d.SourceResidency != schedule.NoResidency &&
			fs2.Residencies[d.SourceResidency].FedBy == schedule.PrePlacedFeed {
			t.Error("request beyond the seed's span served from it")
		}
	}
}

// TestFrozenPrefixUnmodified pins what ScheduleFile may share with a frozen
// prefix: it copies the prefix's records once and keeps the deliveries'
// routes and the residencies' Services, capped at their length, so a run
// that extends a frozen copy — appending to its Services, moving its
// LastService — must leave the prefix it was handed byte for byte as it
// was, with and without a ledger, carry the frozen records through at their
// indices, and hold a Services array in common with the prefix only where
// no new delivery reads the copy (SORP evaluates a file's candidates from
// one prefix concurrently, and an append into shared spare capacity would be
// theirs to race on).
func TestFrozenPrefixUnmodified(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := ScheduleFile(f.Model, 0, f.Requests[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range frozen.Residencies {
		// Spare capacity, as an append-grown slice has: appending through a
		// shared header would land in it instead of reallocating.
		c := &frozen.Residencies[j]
		c.Services = append(make([]int, 0, 8), c.Services...)
	}
	before, err := json.Marshal(frozen)
	if err != nil {
		t.Fatal(err)
	}
	for _, ledger := range []*occupancy.Ledger{nil, occupancy.NewLedger(f.Topo, f.Model.Catalog())} {
		fs, err := ScheduleFile(f.Model, 0, f.Requests[2:], Options{Frozen: frozen, Ledger: ledger})
		if err != nil {
			t.Fatal(err)
		}
		extended := false
		for j, c := range frozen.Residencies {
			got := fs.Residencies[j]
			if got.Loc != c.Loc || got.Load != c.Load || got.LastService < c.LastService || len(got.Services) < len(c.Services) {
				t.Fatalf("frozen residency %d came through as %+v, was %+v", j, got, c)
			}
			shared := len(c.Services) > 0 && &got.Services[0] == &c.Services[0]
			if untouched := len(got.Services) == len(c.Services); shared != untouched || cap(got.Services) < len(c.Services) ||
				untouched && cap(got.Services) != len(got.Services) {
				t.Errorf("frozen residency %d: %d of the prefix's %d services (cap %d), shared %v",
					j, len(got.Services), len(c.Services), cap(got.Services), shared)
			}
			extended = extended || (got.LastService > c.LastService && len(got.Services) > len(c.Services))
		}
		if !extended {
			t.Fatalf("fixture bug: the late request extended no frozen copy: %+v", fs.Residencies)
		}
		if len(fs.Deliveries) != 3 || !slices.Equal(fs.Deliveries[1].Route, frozen.Deliveries[1].Route) {
			t.Fatalf("frozen deliveries not carried through: %+v", fs.Deliveries)
		}
		after, err := json.Marshal(frozen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("ScheduleFile wrote through its frozen prefix (ledger %v):\nbefore %s\nafter  %s", ledger != nil, before, after)
		}
	}
}

// SORP evaluates one file from one prefix on several workers at once, and
// the results share the prefix's service lists. Rejective runs from four
// goroutines (under -race in CI), each adding a video's last request to a
// prefix holding all the others, their results handed back for the next
// runs to be built in, must leave the prefixes' JSON as it was, and each
// result must share the array of every frozen list that gained no reader
// and own the array of every list that gained one.
func TestFrozenServiceListsShareThePrefix(t *testing.T) {
	rig, err := testutil.NewPaperRig(7, 6, 20, 6*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.15), 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	byVideo := reqs.ByVideo()
	prefixes := make(map[media.VideoID]*schedule.FileSchedule)
	for _, vid := range reqs.Videos() {
		rs := byVideo[vid]
		if prefixes[vid], err = ScheduleFile(rig.Model, vid, rs[:len(rs)-1], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	var shared, own atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, vid := range reqs.Videos() {
					rs, pre := byVideo[vid], prefixes[vid]
					fs, err := ScheduleFile(rig.Model, vid, rs[len(rs)-1:], Options{Frozen: pre, Ledger: occupancy.NewLedger(rig.Topo, rig.Catalog)})
					if err != nil {
						t.Error(err)
						return
					}
					for j, c := range pre.Residencies {
						got := fs.Residencies[j].Services
						same := len(c.Services) > 0 && &got[0] == &c.Services[0]
						if untouched := len(got) == len(c.Services); same != untouched {
							t.Errorf("video %d frozen residency %d: %d of the prefix's %d services, shared %v", vid, j, len(got), len(c.Services), same)
						} else if same {
							shared.Add(1)
						} else {
							own.Add(1)
						}
					}
					Recycle(fs)
				}
			}
		}()
	}
	wg.Wait()
	after, err := json.Marshal(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("concurrent runs wrote through their frozen prefixes")
	}
	if shared.Load() == 0 || own.Load() == 0 {
		t.Fatalf("fixture bug: %d frozen lists shared, %d gained a reader; the runs must produce both", shared.Load(), own.Load())
	}
}
