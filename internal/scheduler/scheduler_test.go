package scheduler

import (
	"encoding/json"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestRunEndToEnd(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 6, 30, 6*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), 21)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.271, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rig.Model, reqs, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.FinalCost <= 0 {
		t.Error("final cost must be positive")
	}
	if out.Schedule.NumDeliveries() != len(reqs) {
		t.Errorf("deliveries = %d, requests = %d", out.Schedule.NumDeliveries(), len(reqs))
	}
	// Run validates internally; re-validate here for belt and braces.
	if err := out.Schedule.Validate(rig.Topo, rig.Catalog, reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Final schedule must be overflow-free.
	ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, out.Schedule)
	if ovs := ledger.AllOverflows(); len(ovs) != 0 {
		t.Errorf("overflows in final schedule: %v", ovs)
	}
}

func TestRunBeatsDirectBaseline(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 6, 30, 8*units.GB, pricing.PerGBHour(1), pricing.PerGB(500), 31)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := Run(rig.Model, reqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunDirect(rig.Model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Overflows != 0 || len(direct.Victims) != 0 {
		t.Error("direct baseline must never overflow")
	}
	if direct.Schedule.NumResidencies() != 0 {
		t.Error("direct baseline must not cache")
	}
	if smart.FinalCost >= direct.FinalCost {
		t.Errorf("caching scheduler %v not cheaper than direct %v (highly skewed workload)",
			smart.FinalCost, direct.FinalCost)
	}
}

func TestRunSkipResolution(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rig.Model, reqs, Config{SkipResolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Overflows == 0 {
		t.Skip("rig did not overflow; adjust seed")
	}
	if out.FinalCost != out.Phase1Cost || len(out.Victims) != 0 {
		t.Error("SkipResolution must return the phase-1 schedule untouched")
	}
	// With resolution, cost goes up and overflows disappear.
	full, err := Run(rig.Model, reqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Phase1Cost != out.Phase1Cost {
		t.Error("phase 1 must be deterministic")
	}
	if full.ResolutionDelta() < 0 {
		t.Errorf("resolution delta %v negative", full.ResolutionDelta())
	}
	if len(full.Victims) == 0 {
		t.Error("resolution recorded no victims despite overflows")
	}
}

func TestRunMetricsProduceDifferentSchedules(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[sorp.HeatMetric]float64{}
	for _, metric := range []sorp.HeatMetric{sorp.Period, sorp.PeriodPerCost, sorp.Space, sorp.SpacePerCost} {
		out, err := Run(rig.Model, reqs, Config{Metric: metric})
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		costs[metric] = float64(out.FinalCost)
	}
	// All four must succeed; the per-cost metrics must be no worse than
	// their absolute counterparts on average — here just sanity that the
	// results are positive and recorded.
	for m, c := range costs {
		if c <= 0 {
			t.Errorf("%v produced non-positive cost", m)
		}
	}
}

func TestRunEmptyRequests(t *testing.T) {
	rig, err := testutil.NewPaperRig(4, 2, 5, 5*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(rig.Model, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalCost != 0 || out.Schedule.NumDeliveries() != 0 {
		t.Error("empty request set must produce empty, free schedule")
	}
}

func TestRunDeterminism(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(rig.Model, reqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rig.Model, reqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCost != b.FinalCost || len(a.Victims) != len(b.Victims) {
		t.Error("Run not deterministic")
	}
}

func TestRunPolicyAblation(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 6, 30, 8*units.GB, pricing.PerGBHour(1), pricing.PerGB(500), 41)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	onRoute, err := Run(rig.Model, reqs, Config{Policy: ivs.CacheOnRoute})
	if err != nil {
		t.Fatal(err)
	}
	dstOnly, err := Run(rig.Model, reqs, Config{Policy: ivs.CacheAtDestination})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunDirect(rig.Model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// En-route caching dominates destination-only, which dominates direct,
	// in option space; greedy choices could in principle invert the first
	// pair, but both must beat direct on a skewed workload.
	if float64(onRoute.FinalCost) > float64(direct.FinalCost) {
		t.Errorf("on-route %v worse than direct %v", onRoute.FinalCost, direct.FinalCost)
	}
	if float64(dstOnly.FinalCost) > float64(direct.FinalCost) {
		t.Errorf("dst-only %v worse than direct %v", dstOnly.FinalCost, direct.FinalCost)
	}
}

// TestScheduleJSONRoundTrip is a persistence property: for several seeds,
// a produced schedule survives JSON encode/decode with identical cost and
// validity.
func TestScheduleJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rig, err := testutil.NewPaperRig(7, 5, 20, 6*units.GB, pricing.PerGBHour(2), pricing.PerGB(400), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: seed + 31})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(rig.Model, reqs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(out.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		back := schedule.New()
		if err := json.Unmarshal(blob, back); err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(rig.Topo, rig.Catalog, reqs); err != nil {
			t.Fatalf("seed %d: decoded schedule invalid: %v", seed, err)
		}
		if got := rig.Model.ScheduleCost(back); !got.ApproxEqual(out.FinalCost, 1e-9) {
			t.Fatalf("seed %d: decoded cost %v != %v", seed, got, out.FinalCost)
		}
	}
}

func TestRefineNeverHurts(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rig, err := testutil.NewPaperRig(8, 7, 16, 4*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), seed+80)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 8 * simtime.Hour, Seed: seed + 90})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(rig.Model, reqs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Run(rig.Model, reqs, Config{Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if float64(refined.FinalCost) > float64(plain.FinalCost)+1e-6 {
			t.Errorf("seed %d: refine increased cost %v -> %v", seed, plain.FinalCost, refined.FinalCost)
		}
		// Savings accounting is consistent.
		want := float64(plain.FinalCost - refined.FinalCost)
		if got := float64(refined.RefineSavings); got < want-1e-6 {
			t.Errorf("seed %d: claimed savings %g < realized %g", seed, got, want)
		}
		if refined.RefinedFiles == 0 && refined.RefineSavings != 0 {
			t.Error("savings without moved files")
		}
		// Refined schedule stays valid and overflow-free (Run checks both
		// internally; double-check overflow-freeness explicitly).
		ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, refined.Schedule)
		if ovs := ledger.AllOverflows(); len(ovs) != 0 {
			t.Errorf("seed %d: refine introduced overflows: %v", seed, ovs)
		}
	}
}

func TestRefineFindsImprovementOnTightRig(t *testing.T) {
	// On a rig with many victims, phase-2 rescheduling decisions leave
	// slack that the sweep should recover at least sometimes across seeds.
	improvedSomewhere := false
	for seed := int64(0); seed < 6; seed++ {
		rig, err := testutil.NewPaperRig(8, 7, 12, 4*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), seed+70)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 6 * simtime.Hour, Seed: seed + 71})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(rig.Model, reqs, Config{Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.RefinedFiles > 0 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Log("note: refinement found no improvement on any seed (schedules already locally optimal)")
	}
}

// TestZeroCapacityDegeneratesToDirect is a failure-injection case: with no
// usable disk anywhere, phase 1 still caches (it is capacity-blind), and
// resolution must strip every residency, landing on the all-direct
// schedule.
func TestZeroCapacityDegeneratesToDirect(t *testing.T) {
	topo := topology.Star(topology.GenConfig{Storages: 4, UsersPerStorage: 4, Capacity: 1}) // 1 byte
	cat, err := media.Uniform(3, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), pricing.PerGB(300))
	model := cost.NewModel(book, routing.NewTable(book), cat)
	reqs, err := workload.Generate(topo, cat, workload.Config{Alpha: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(model, reqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule.NumResidencies() != 0 {
		t.Errorf("1-byte disks still hold %d residencies", out.Schedule.NumResidencies())
	}
	direct, err := RunDirect(model, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FinalCost.ApproxEqual(direct.FinalCost, 1e-6) {
		t.Errorf("zero-capacity cost %v != direct %v", out.FinalCost, direct.FinalCost)
	}
}
