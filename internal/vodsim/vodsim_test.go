package vodsim

import (
	"math"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestExecuteFig2MatchesAnalyticCost(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-6) {
		t.Errorf("simulated cost %v != analytic %v", rep.TotalCost(), out.FinalCost)
	}
	// The greedy's optimum: 2 streams (VW->IS1, IS1->IS2) and the local
	// IS2 hit (zero hops), 2 cache loads.
	if rep.Streams != 3 {
		t.Errorf("streams = %d, want 3", rep.Streams)
	}
	if rep.CacheLoads != 2 {
		t.Errorf("cache loads = %d, want 2", rep.CacheLoads)
	}
	// Per-component agreement.
	bd := f.Model.CostBreakdown(out.Schedule)
	if !rep.NetworkCost.ApproxEqual(bd.Network, 1e-6) {
		t.Errorf("network: sim %v vs model %v", rep.NetworkCost, bd.Network)
	}
	if !rep.StorageCost.ApproxEqual(bd.Storage, 1e-6) {
		t.Errorf("storage: sim %v vs model %v", rep.StorageCost, bd.Storage)
	}
}

// TestExecuteMatchesModelAtScale is the central cross-validation property:
// for full two-phase schedules over many seeds, the event simulator's
// independently accumulated cost must equal Ψ(S) and no violation may
// occur.
func TestExecuteMatchesModelAtScale(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rig, err := testutil.NewPaperRig(9, 8, 40, 5*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 8 * simtime.Hour, Seed: seed + 50})
		if err != nil {
			t.Fatal(err)
		}
		out, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep := Execute(rig.Book, rig.Catalog, out.Schedule)
		if !rep.OK() {
			t.Fatalf("seed %d: violations: %v", seed, rep.Violations[:min(3, len(rep.Violations))])
		}
		if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-3) {
			t.Errorf("seed %d: simulated %v != analytic %v", seed, rep.TotalCost(), out.FinalCost)
		}
		if rep.Streams != len(reqs) {
			t.Errorf("seed %d: streams = %d, requests = %d", seed, rep.Streams, len(reqs))
		}
	}
}

func TestExecuteDetectsOverCommit(t *testing.T) {
	// Run phase 1 only on a rig known to overflow; the simulator must
	// report capacity violations that SORP would have fixed.
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBSec(5.0/3600), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := scheduler.Run(rig.Model, reqs, scheduler.Config{SkipResolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Overflows == 0 {
		t.Skip("rig did not overflow")
	}
	rep := Execute(rig.Book, rig.Catalog, raw.Schedule)
	if rep.OK() {
		t.Fatal("simulator missed the over-commit that the ledger detected")
	}
	// And the resolved schedule must execute cleanly.
	fixed, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := Execute(rig.Book, rig.Catalog, fixed.Schedule)
	if !rep2.OK() {
		t.Fatalf("resolved schedule still violates: %v", rep2.Violations)
	}
}

func TestExecuteLinkAccounting(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.RunDirect(f.Model, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Direct: 3 streams from VW. VW-IS1 carries all three (3 × 4.05 GB);
	// IS1-IS2 carries two.
	if len(rep.Links) != 2 {
		t.Fatalf("links used = %d, want 2", len(rep.Links))
	}
	vol := 4.05e9
	e01, _ := f.Topo.EdgeBetween(f.VW, f.IS1)
	e12, _ := f.Topo.EdgeBetween(f.IS1, f.IS2)
	byEdge := map[int]LinkUsage{}
	for _, lu := range rep.Links {
		byEdge[lu.Edge] = lu
	}
	if got := byEdge[e01].Bytes.Float(); math.Abs(got-3*vol) > 1 {
		t.Errorf("VW-IS1 bytes = %g, want %g", got, 3*vol)
	}
	if got := byEdge[e12].Bytes.Float(); math.Abs(got-2*vol) > 1 {
		t.Errorf("IS1-IS2 bytes = %g, want %g", got, 2*vol)
	}
	// No temporal overlap between the three 90-minute streams (they start
	// 90 min apart), so peak concurrency is 1.
	if byEdge[e01].PeakStreams != 1 {
		t.Errorf("peak streams = %d, want 1", byEdge[e01].PeakStreams)
	}
	if math.Abs(byEdge[e01].PeakRate.Mbit()-6) > 1e-9 {
		t.Errorf("peak rate = %v, want 6 Mbps", byEdge[e01].PeakRate)
	}
	if rep.StorageCost != 0 {
		t.Error("direct schedule must have zero storage cost")
	}
}

func TestExecuteNodePeakMatchesLedger(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	ledger := occupancy.FromSchedule(f.Topo, f.Model.Catalog(), out.Schedule)
	for _, nu := range rep.Nodes {
		peak, _ := ledger.Peak(nu.Node)
		if math.Abs(peak-nu.PeakReserved) > 1 {
			t.Errorf("node %d: sim peak %g vs ledger peak %g", nu.Node, nu.PeakReserved, peak)
		}
	}
}

func TestExecuteContinuityViolation(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build a corrupt schedule: a delivery reads the cache before it
	// is loaded. (Validate would reject it; the simulator must too.)
	r1, _ := f.Model.Table().Route(f.VW, f.IS1)
	r2, _ := f.Model.Table().Route(f.IS1, f.IS2)
	fs := &schedule.FileSchedule{Video: 0}
	fs.Deliveries = []schedule.Delivery{
		{Video: 0, User: f.Topo.UsersAt(f.IS1)[0], Start: 5000, Route: r1, SourceResidency: schedule.NoResidency},
		{Video: 0, User: f.Topo.UsersAt(f.IS2)[0], Start: 1000, Route: r2, SourceResidency: 0},
	}
	fs.Residencies = []schedule.Residency{
		{Video: 0, Loc: f.IS1, Src: f.VW, Load: 5000, LastService: 6000, FedBy: 0},
	}
	s := schedule.New()
	s.Put(fs)
	rep := Execute(f.Model.Book(), f.Model.Catalog(), s)
	if rep.OK() {
		t.Fatal("simulator accepted a stream reading an unloaded cache")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPhysicalVsEnvelope pins the relationship between the paper's
// reservation envelope (Eq. 6–7) and the physically held bytes:
//
//   - for a LONG residency the envelope upper-bounds physical usage and
//     both peak at the full file size;
//   - for a SHORT residency both peak at γ·size, but the physical plateau
//     outlives the envelope's decay (the writer is still filling), so
//     physical can transiently exceed the envelope — the simulator reports
//     this via PhysicalNotes when it crosses capacity.
func TestPhysicalVsEnvelope(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	P := f.Model.Catalog().Video(0).Playback
	size := f.Model.Catalog().Video(0).Size.Float()
	u1 := f.Topo.UsersAt(f.IS1)[0]

	// Long residency: two services 2P apart.
	long := workload.Set{
		{User: u1, Video: 0, Start: 0},
		{User: f.Topo.UsersAt(f.IS1)[0], Video: 0, Start: simtime.Time(2 * P)},
	}
	out, err := scheduler.Run(f.Model, long, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	for _, nu := range rep.Nodes {
		if nu.PeakPhysical > nu.PeakReserved+1e-3 {
			t.Errorf("long residency: physical peak %g exceeds envelope peak %g", nu.PeakPhysical, nu.PeakReserved)
		}
		if math.Abs(nu.PeakReserved-size) > 1e-3 {
			t.Errorf("long residency envelope peak = %g, want full size", nu.PeakReserved)
		}
	}

	// Short residency: second service at P/2 after the first.
	short := workload.Set{
		{User: u1, Video: 0, Start: 0},
		{User: f.Topo.UsersAt(f.IS1)[0], Video: 0, Start: simtime.Time(P / 2)},
	}
	out2, err := scheduler.Run(f.Model, short, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := Execute(f.Model.Book(), f.Model.Catalog(), out2.Schedule)
	if !rep2.OK() {
		t.Fatalf("violations: %v", rep2.Violations)
	}
	for _, nu := range rep2.Nodes {
		// γ = 1/2: both peaks at size/2 (the plateau height).
		if math.Abs(nu.PeakPhysical-size/2) > 1 || math.Abs(nu.PeakReserved-size/2) > 1 {
			t.Errorf("short residency peaks: physical %g, reserved %g, want %g", nu.PeakPhysical, nu.PeakReserved, size/2)
		}
	}
}

// TestPrePlacementBulkAccounting verifies the simulator's bulk-flow
// accounting for standing copies: each pre-load carries exactly the file
// size per hop, priced at the book's preload factor, and the total still
// matches the analytic Ψ(S).
func TestPrePlacementBulkAccounting(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Model.Book().SetPreloadFactor(0.5); err != nil {
		t.Fatal(err)
	}
	// A standing copy at IS2 (2 hops from VW) serving one local request.
	seed := schedule.Residency{
		Video: 0, Loc: f.IS2, Src: f.VW,
		Load: 0, LastService: simtime.Time(6 * simtime.Hour),
		FedBy: schedule.PrePlacedFeed,
	}
	u := f.Topo.UsersAt(f.IS2)[0]
	reqs := workload.Set{{User: u, Video: 0, Start: simtime.Time(simtime.Hour)}}
	out, err := scheduler.Run(f.Model, reqs, scheduler.Config{
		Seeds: map[media.VideoID][]schedule.Residency{0: {seed}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// The request is a local cache hit: the only traffic is the pre-load,
	// 2.5 GB on each of the two hops.
	size := 2.5e9
	if len(rep.Links) != 2 {
		t.Fatalf("links used = %d, want 2 (pre-load route)", len(rep.Links))
	}
	for _, lu := range rep.Links {
		if math.Abs(lu.BulkBytes.Float()-size) > 1 {
			t.Errorf("edge %d bulk bytes = %v, want 2.5GB", lu.Edge, lu.BulkBytes)
		}
		if lu.Bytes != lu.BulkBytes {
			t.Errorf("edge %d carries non-bulk traffic %v", lu.Edge, lu.Bytes-lu.BulkBytes)
		}
	}
	if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-6) {
		t.Errorf("simulated %v != analytic %v", rep.TotalCost(), out.FinalCost)
	}
	// Halving the preload factor halved the pre-load's network charge:
	// recompute at factor 1 for comparison.
	if err := f.Model.Book().SetPreloadFactor(1); err != nil {
		t.Fatal(err)
	}
	full := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if full.NetworkCost <= rep.NetworkCost {
		t.Errorf("full-tariff network %v not above discounted %v", full.NetworkCost, rep.NetworkCost)
	}
}

// TestExecuteEndToEndPricing verifies the simulator prices streams at the
// end-to-end rate (overrides included) when the book is in that mode, so
// the cost triangle holds under both charging bases of paper §2.2.2.
func TestExecuteEndToEndPricing(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	f.Model.Book().SetMode(pricing.EndToEnd)
	// Flat override: every remote pair costs the same per byte.
	for _, a := range f.Topo.Nodes() {
		for _, b := range f.Topo.Nodes() {
			if a.ID != b.ID {
				f.Model.Book().SetEndToEnd(a.ID, b.ID, pricing.PerGB(120))
			}
		}
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-3) {
		t.Fatalf("end-to-end mode: simulated %v != analytic %v", rep.TotalCost(), out.FinalCost)
	}
	// Under flat pricing remote relays save nothing, so the scheduler
	// caches locally at IS2 (zero-rate self service) where profitable.
	if rep.NetworkCost <= 0 {
		t.Error("network cost must be positive")
	}
}

// TestExecuteResidueScalesWithThroughput is the batch reproducer of what
// horizon.Recover used to refuse on the benchmark's intake_light workload:
// 20 000 requests over 24 h on storages so large that nothing overflows. A
// node's level and physical accumulators sum and drain some 1e11 bytes, and
// on seeds 4, 11, 22, 36 and 60 what is left after the last drain is about a
// milli-byte — 6.5e-15 of the node's peak, float residue and not a byte the
// schedule forgot. Every seed must execute clean and agree with Ψ(S).
func TestExecuteResidueScalesWithThroughput(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rig, err := testutil.NewPaperRig(5, 40, 40, 1000*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Window: 24 * simtime.Hour, RequestsPerUser: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Overflows != 0 {
			t.Fatalf("seed %d: fixture bug: the rig overflowed", seed)
		}
		rep := Execute(rig.Book, rig.Catalog, out.Schedule)
		if !rep.OK() {
			t.Errorf("seed %d: violations: %v", seed, rep.Violations[:min(3, len(rep.Violations))])
		}
		if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-6*(1+float64(out.FinalCost))) {
			t.Errorf("seed %d: simulated %v != analytic %v", seed, rep.TotalCost(), out.FinalCost)
		}
	}
}

// The end-of-run tolerance grows with what a node carried, but stays a
// tolerance for rounding only: an idle node is held to the absolute
// milli-byte, a whole byte left behind at a node that peaked at 1 GB is
// still a violation, and the residue the benchmark tripped on (intake_light
// seed 5, node 6) is not.
func TestResidueTolerance(t *testing.T) {
	if got := residue(0); got != 1e-3 {
		t.Errorf("idle node tolerance = %g, want the absolute 1e-3", got)
	}
	if tol := residue(1e9); 1 <= tol {
		t.Errorf("one byte left at a 1 GB peak passes (tolerance %g)", tol)
	}
	if left, peak := 0.001078498549759388, 1.658934444230009e+11; left > residue(peak) {
		t.Errorf("%g bytes left of a %g-byte peak still counts as a violation (tolerance %g)", left, peak, residue(peak))
	}
}
