package online

import (
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestOnlineFig2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(f.Model, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// U1 misses (first request). U2 misses locally but IS1 has a copy
	// (admitted from U1's stream? No — admission is at the REQUESTER's
	// local storage: U1's stream admits at IS1). U2 is then served from
	// IS1 (cheaper than VW), and admits a copy at IS2; U3 hits IS2
	// locally.
	if res.CacheHits != 2 || res.LocalHits != 1 {
		t.Errorf("hits: cache=%d local=%d", res.CacheHits, res.LocalHits)
	}
	if res.TotalCost() <= 0 {
		t.Error("cost must be positive")
	}
	// Network: 64.8 + 32.4 + 0 = $97.20 — same streams as the offline
	// optimum on this example.
	if !res.NetworkCost.ApproxEqual(units.Money(97.2), 1e-6) {
		t.Errorf("network = %v", res.NetworkCost)
	}
	// Storage: the online system cannot size residencies to future use,
	// so it pays at least the offline optimum's $11.25.
	if res.StorageCost < units.Money(11.25-1e-9) {
		t.Errorf("online storage %v below offline optimum", res.StorageCost)
	}
}

func TestOnlineNeverBeatsOfflineAtScale(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rig, err := testutil.NewPaperRig(9, 8, 40, 6*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: seed + 60})
		if err != nil {
			t.Fatal(err)
		}
		off, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(rig.Model, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if on.Requests != len(reqs) {
			t.Fatalf("seed %d: served %d of %d", seed, on.Requests, len(reqs))
		}
		// The offline scheduler with full batch knowledge must not lose to
		// the reactive baseline. (Not a theorem for arbitrary inputs — the
		// greedy is heuristic — but a solid regression check across seeds.)
		if float64(off.FinalCost) > float64(on.TotalCost())*1.001 {
			t.Errorf("seed %d: offline %v worse than online %v", seed, off.FinalCost, on.TotalCost())
		}
	}
}

func TestOnlineEvictionUnderPressure(t *testing.T) {
	// One-slot storages (4 GB holding a single 2.5 GB title), two titles
	// requested alternately: each admission evicts the other title.
	topo := topology.Star(topology.GenConfig{Storages: 1, UsersPerStorage: 4, Capacity: 4 * units.GB})
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), pricing.PerGB(300))
	model := cost.NewModel(book, routing.NewTable(book), cat)
	users := topo.UsersAt(topo.Storages()[0])
	h := simtime.Time(5 * simtime.Hour)
	reqs := workload.Set{
		{User: users[0], Video: 0, Start: 0},
		{User: users[1], Video: 1, Start: h},
		{User: users[2], Video: 0, Start: 2 * h},
		{User: users[3], Video: 1, Start: 3 * h},
	}
	res, err := Run(model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Error("expected LRU evictions under space pressure")
	}
	if res.LocalHits != 0 {
		t.Errorf("alternating titles on a one-slot cache must never hit locally, got %d", res.LocalHits)
	}
}

func TestOnlinePinnedCopiesBlockAdmission(t *testing.T) {
	// Two concurrent playbacks of different titles at a one-slot storage:
	// the second title cannot be admitted while the first is being read.
	rig, err := testutil.NewPaperRig(2, 4, 2, 4*units.GB, pricing.PerGBHour(1), pricing.PerGB(300), 3)
	if err != nil {
		t.Fatal(err)
	}
	users := rig.Topo.UsersAt(rig.Topo.Storages()[0])
	reqs := workload.Set{
		{User: users[0], Video: 0, Start: 0},
		{User: users[1], Video: 1, Start: 600}, // overlaps title 0's playback
		{User: users[2], Video: 1, Start: 1200},
	}
	res, err := Run(rig.Model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Title 1 was never admitted (blocked at t=600), so the t=1200 request
	// cannot hit locally... unless admission succeeded at 1200 via the
	// second stream — which serves user 2 itself. Either way: no eviction
	// of a pinned copy may have occurred, and all requests are served.
	if res.Requests != 3 {
		t.Fatal("not all requests served")
	}
}

func TestOnlineOversizedTitleSkipsAdmission(t *testing.T) {
	rig, err := testutil.NewPaperRig(2, 2, 2, 1*units.GB, pricing.PerGBHour(1), pricing.PerGB(300), 3)
	if err != nil {
		t.Fatal(err)
	}
	users := rig.Topo.UsersAt(rig.Topo.Storages()[0])
	reqs := workload.Set{
		{User: users[0], Video: 0, Start: 0},
		{User: users[1], Video: 0, Start: 20000},
	}
	res, err := Run(rig.Model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.StorageCost != 0 {
		t.Errorf("oversized titles must never cache: %+v", res)
	}
}

func TestOnlineEvictionTieBreakDeterministic(t *testing.T) {
	// Two copies with identical lastUse compete for eviction: the victim
	// must be chosen by the documented rule (older load, then lower video
	// ID), not by sort.Slice's unspecified equal-key order. Requests for
	// titles 0 and 1 start at the same instant, so both cached copies
	// carry the same lastUse when title 2's admission forces an eviction.
	topo := topology.Star(topology.GenConfig{Storages: 1, UsersPerStorage: 4, Capacity: 5 * units.GB})
	cat, err := media.Uniform(3, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), pricing.PerGB(300))
	model := cost.NewModel(book, routing.NewTable(book), cat)
	users := topo.UsersAt(topo.Storages()[0])
	h := simtime.Time(5 * simtime.Hour)
	reqs := workload.Set{
		{User: users[0], Video: 0, Start: 0},
		{User: users[1], Video: 1, Start: 0}, // same lastUse as title 0
		{User: users[2], Video: 2, Start: h}, // admission evicts exactly one
		{User: users[3], Video: 1, Start: 2 * h},
	}
	first, err := Run(model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", first.Evictions)
	}
	// The tie must fall on title 0 (equal load time, lower video ID), so
	// title 1's copy survives and serves the final request locally.
	if first.LocalHits != 1 {
		t.Fatalf("local hits = %d, want 1 (title 1 must survive the tie)", first.LocalHits)
	}
	// And the whole outcome must be reproducible run over run.
	for i := 0; i < 10; i++ {
		again, err := Run(model, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if *again != *first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

func TestOnlineInputValidation(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(f.Model, workload.Set{{User: 99, Video: 0, Start: 0}}); err == nil {
		t.Error("expected unknown-user error")
	}
	if _, err := Run(f.Model, workload.Set{{User: 0, Video: 42, Start: 0}}); err == nil {
		t.Error("expected unknown-video error")
	}
	res, err := Run(f.Model, nil)
	if err != nil || res.TotalCost() != 0 {
		t.Errorf("empty run: %+v, %v", res, err)
	}
}

func TestOnlineHitRate(t *testing.T) {
	r := &Result{Requests: 4, CacheHits: 1}
	if r.HitRate() != 0.25 {
		t.Error("HitRate wrong")
	}
	empty := &Result{}
	if empty.HitRate() != 0 {
		t.Error("empty HitRate must be 0")
	}
}
