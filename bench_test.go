// Benchmarks regenerating each figure and table of the paper's evaluation
// (§5) plus microbenchmarks of the scheduling pipeline's stages and
// ablations of its design choices. The figure benches run a reduced sweep
// per iteration so `go test -bench=.` stays minutes-scale; the full paper-
// scale regeneration is `cmd/vspexp`.
package vsp_test

import (
	"math/rand"
	"testing"

	vsp "github.com/vodsim/vsp"
	"github.com/vodsim/vsp/internal/experiment"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/optimal"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/vodsim"
	"github.com/vodsim/vsp/internal/workload"
)

// benchBase is the reduced-scale configuration the figure benches sweep.
func benchBase() testutil.Params {
	return testutil.Params{Storages: 9, UsersPerStorage: 6, Titles: 60, Seed: 5}
}

// BenchmarkFig5 regenerates Figure 5 (network charging rate sweep under
// several storage rates, with the no-storage baseline) per iteration.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig5(benchBase(), 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		reportGap(b, fig)
	}
}

// BenchmarkFig6 regenerates Figure 6 (network rate sweep under several
// access patterns).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6(benchBase(), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (storage rate sweep against the
// network-only system).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig7(benchBase(), 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		reportGap(b, fig)
	}
}

// BenchmarkFig8 regenerates Figure 8 (storage rate sweep under several
// network rates).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig8(benchBase(), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (access-pattern sweep under several
// storage sizes).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(benchBase(), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 runs a reduced heat-metric cross product (2×2×2×2 instead
// of 6×4×8×4) per iteration, exercising phase 1 plus all four resolution
// metrics per configuration.
func BenchmarkTable5(b *testing.B) {
	cfg := experiment.Table5Config{
		Base:       benchBase(),
		SRates:     []float64{3, 6},
		Capacities: []float64{4, 8},
		NRates:     []float64{300, 700},
		Alphas:     []float64{0.1, 0.5},
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CostAffected), "affected")
		b.ReportMetric(res.Best2or4Pct(), "best2or4_%")
	}
}

// reportGap records the savings of the scheduler versus the baseline
// (last-series) on the final sweep point, the figure's headline quantity.
func reportGap(b *testing.B, fig *experiment.Figure) {
	n := len(fig.Series)
	if n < 2 {
		return
	}
	sched := fig.Series[0].Points
	base := fig.Series[n-1].Points
	last := len(sched) - 1
	if last >= 0 && base[last].Y > 0 {
		b.ReportMetric(100*(base[last].Y-sched[last].Y)/base[last].Y, "savings_%")
	}
}

// ---- pipeline stage microbenchmarks ----

func buildRig(b *testing.B, p testutil.Params) *testutil.Rig {
	b.Helper()
	r, err := testutil.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkPhase1 measures individual video scheduling (greedy, capacity
// blind) over the full reduced workload.
func BenchmarkPhase1(b *testing.B) {
	r := buildRig(b, benchBase())
	parts := r.Requests.ByVideo()
	vids := r.Requests.Videos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vid := range vids {
			if _, err := ivs.ScheduleFile(r.Model, vid, parts[vid], ivs.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTwoPhase measures the full scheduler (phase 1 + overflow
// resolution + validation).
func BenchmarkTwoPhase(b *testing.B) {
	r := buildRig(b, benchBase())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSORP isolates the overflow-resolution phase: phase 1 runs once
// outside the loop, resolution runs per iteration.
func BenchmarkSORP(b *testing.B) {
	p := benchBase()
	p.CapacityGB = 4 // force overflows
	r := buildRig(b, p)
	raw, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{SkipResolution: true})
	if err != nil {
		b.Fatal(err)
	}
	if raw.Overflows == 0 {
		b.Skip("rig did not overflow")
	}
	parts := r.Requests.ByVideo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sorp.Resolve(r.Model, raw.Schedule, parts, sorp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeatMetrics compares resolution run time and outcome across the
// four victim-selection metrics.
func BenchmarkHeatMetrics(b *testing.B) {
	p := benchBase()
	p.CapacityGB = 4
	r := buildRig(b, p)
	raw, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{SkipResolution: true})
	if err != nil {
		b.Fatal(err)
	}
	parts := r.Requests.ByVideo()
	for _, m := range []sorp.HeatMetric{sorp.Period, sorp.PeriodPerCost, sorp.Space, sorp.SpacePerCost} {
		b.Run(m.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sorp.Resolve(r.Model, raw.Schedule, parts, sorp.Options{Metric: m})
				if err != nil {
					b.Fatal(err)
				}
				last = float64(res.CostAfter)
			}
			b.ReportMetric(last, "final_cost")
		})
	}
}

// BenchmarkCachePolicyAblation compares the caching policies (the paper's
// en-route copying vs destination-only vs none) on final schedule cost.
func BenchmarkCachePolicyAblation(b *testing.B) {
	r := buildRig(b, benchBase())
	for _, pol := range []ivs.Policy{ivs.CacheOnRoute, ivs.CacheAtDestination, ivs.NoCaching} {
		b.Run(pol.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				last = float64(out.FinalCost)
			}
			b.ReportMetric(last, "final_cost")
		})
	}
}

// BenchmarkRoutingTable measures all-pairs cheapest-route construction on
// the paper's 20-node topology.
func BenchmarkRoutingTable(b *testing.B) {
	topo := topology.Paper(5 * units.GB)
	book := pricing.Uniform(topo, 0, pricing.PerGB(500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = routing.NewTable(book)
	}
}

// BenchmarkOverflowDetection measures exact overflow-interval detection
// over an integrated paper-scale schedule.
func BenchmarkOverflowDetection(b *testing.B) {
	p := testutil.Params{Seed: 1997}
	r := buildRig(b, p)
	raw, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{SkipResolution: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ledger := occupancy.FromSchedule(r.Topo, r.Catalog, raw.Schedule)
		_ = ledger.AllOverflows()
	}
}

// BenchmarkSimulator measures event-driven execution of a paper-scale
// schedule (190 streams plus cache machinery).
func BenchmarkSimulator(b *testing.B) {
	p := testutil.Params{Seed: 1997}
	r := buildRig(b, p)
	out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := vodsim.Execute(r.Book, r.Catalog, out.Schedule)
		if !rep.OK() {
			b.Fatal("violations")
		}
	}
}

// BenchmarkPaperScaleRun measures one full paper-scale scheduling run
// (19 storages, 190 users, 500 titles) end to end.
func BenchmarkPaperScaleRun(b *testing.B) {
	r := buildRig(b, testutil.Params{Seed: 1997})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.FinalCost), "final_cost")
		}
	}
}

// BenchmarkWorkloadGeneration measures Zipf request-batch generation at
// paper scale.
func BenchmarkWorkloadGeneration(b *testing.B) {
	topo := topology.Paper(5 * units.GB)
	cat := mustCatalog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vsp.GenerateWorkload(topo, cat, vsp.WorkloadConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func mustCatalog(b *testing.B) *vsp.Catalog {
	b.Helper()
	cat, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

// BenchmarkOnlineVsOffline runs the reservation-foreknowledge ablation
// (offline two-phase vs reactive online LRU) per iteration, reporting the
// cost ratio on the final (least skewed) sweep point.
func BenchmarkOnlineVsOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigOnline(benchBase(), 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		off := fig.Series[0].Points
		on := fig.Series[1].Points
		last := len(off) - 1
		if off[last].Y > 0 {
			b.ReportMetric(on[last].Y/off[last].Y, "online_over_offline")
		}
	}
}

// BenchmarkOptimalityGap measures the greedy's gap to the exhaustive
// optimum over a fixed family of small instances (paper §5.5 claims the
// heuristic stays within ~30% of optimal on average).
func BenchmarkOptimalityGap(b *testing.B) {
	rig, err := testutil.NewPaperRig(6, 4, 8, 50*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.1), 9)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	users := rig.Topo.Users()
	instances := make([]workload.Set, 30)
	for k := range instances {
		n := 2 + rng.Intn(4)
		reqs := make(workload.Set, n)
		for i := range reqs {
			reqs[i] = workload.Request{
				User:  users[rng.Intn(len(users))].ID,
				Video: 0,
				Start: simtime.Time(rng.Intn(8 * 3600)),
			}
		}
		instances[k] = reqs
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		total := 0.0
		for _, reqs := range instances {
			gap, err := optimal.Gap(rig.Model, 0, reqs)
			if err != nil {
				b.Fatal(err)
			}
			total += gap
		}
		mean = total / float64(len(instances))
	}
	b.ReportMetric(100*mean, "mean_gap_%")
}

// BenchmarkRefineAblation compares the scheduler with and without the
// post-resolution improvement sweep, reporting each variant's final cost.
func BenchmarkRefineAblation(b *testing.B) {
	p := benchBase()
	p.CapacityGB = 4
	r := buildRig(b, p)
	for _, refine := range []bool{false, true} {
		name := "two-phase"
		if refine {
			name = "two-phase+refine"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{Refine: refine})
				if err != nil {
					b.Fatal(err)
				}
				last = float64(out.FinalCost)
			}
			b.ReportMetric(last, "final_cost")
		})
	}
}

// BenchmarkReplicationAblation compares caching architectures (direct /
// static-only / dynamic / dynamic+static) on final cost at a 25% off-peak
// preload tariff.
func BenchmarkReplicationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigReplication(benchBase(), 0.25, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Report the α=0.1 point: how much dearer static-only runs.
		dyn := fig.Series[0].Points[0].Y
		static := fig.Series[2].Points[0].Y
		if dyn > 0 {
			b.ReportMetric(static/dyn, "static_over_dynamic")
		}
	}
}

// BenchmarkLargeScaleRun pushes well beyond the paper's testbed: 50
// storages × 20 users (1,000 reservations over 1,000 titles) through the
// full two-phase pipeline, demonstrating headroom over the 1997 scale.
func BenchmarkLargeScaleRun(b *testing.B) {
	r := buildRig(b, testutil.Params{
		Storages:        50,
		UsersPerStorage: 20,
		Titles:          1000,
		Seed:            2026,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := scheduler.Run(r.Model, r.Requests, scheduler.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(r.Requests)), "requests")
			b.ReportMetric(float64(out.Overflows), "overflows")
		}
	}
}
