package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func fixtures(t *testing.T) (topoP, catP, reqP string) {
	t.Helper()
	dir := t.TempDir()
	topo := topology.Star(topology.GenConfig{Storages: 3, UsersPerStorage: 2, Capacity: 10 * units.GB})
	cat, err := media.Uniform(4, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(topo, cat, workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	topoP = filepath.Join(dir, "topo.json")
	f, err := os.Create(topoP)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	catP = filepath.Join(dir, "catalog.json")
	f, err = os.Create(catP)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reqP = filepath.Join(dir, "requests.json")
	if err := cli.SaveJSON(reqP, reqs); err != nil {
		t.Fatal(err)
	}
	return topoP, catP, reqP
}

// opts is the flag set every test starts from: the fixtures, the tariff and
// a quiet batch run.
func opts(topoP, catP, reqP string) options {
	return options{
		topoPath: topoP, catPath: catP, reqPath: reqP,
		srate: 2, nrate: 400,
		metricName: "space-per-cost", policyName: "cache-on-route",
		quiet: true,
	}
}

func TestRunSchedulesAndSaves(t *testing.T) {
	o := opts(fixtures(t))
	o.outPath = filepath.Join(t.TempDir(), "schedule.json")
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	sched, err := cli.LoadSchedule(o.outPath)
	if err != nil {
		t.Fatalf("saved schedule unreadable: %v", err)
	}
	if sched.NumDeliveries() != 6 {
		t.Errorf("deliveries = %d, want 6", sched.NumDeliveries())
	}
}

func TestRunWithReportAndAnalysis(t *testing.T) {
	o := opts(fixtures(t))
	o.metricName, o.policyName = "period", "cache-at-destination"
	o.quiet, o.analyze, o.bill, o.workers = false, true, true, 2
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The report, analysis and invoice apply to a rolling replay's
	// committed schedule just the same.
	o.epochTickHours = 1
	if err := run(o); err != nil {
		t.Fatalf("rolling run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	base := opts(fixtures(t))
	for name, mutate := range map[string]func(*options){
		"missing flag":            func(o *options) { o.topoPath = "" },
		"bad metric":              func(o *options) { o.metricName = "bogus" },
		"bad policy":              func(o *options) { o.policyName = "bogus" },
		"unreadable topology":     func(o *options) { o.topoPath = filepath.Join(t.TempDir(), "none.json") },
		"compare without trigger": func(o *options) { o.compare = true },
	} {
		o := base
		mutate(&o)
		if err := run(o); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// Replay the generated trace through the rolling horizon with a small
// epoch trigger and verify the committed schedule lands on disk serving
// every reservation.
func TestRunReplaysTrace(t *testing.T) {
	o := opts(fixtures(t))
	o.leadHours, o.epochRequests, o.compare = 2, 2, true
	o.outPath = filepath.Join(t.TempDir(), "plan.json")
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}

	got, err := cli.LoadSchedule(o.outPath)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cli.LoadTopology(o.topoPath)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := cli.LoadRequests(o.reqPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDeliveries() != len(reqs) {
		t.Fatalf("committed plan has %d deliveries for %d reservations", got.NumDeliveries(), len(reqs))
	}
	cat, err := cli.LoadCatalog(o.catPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(topo, cat, reqs); err != nil {
		t.Fatalf("committed plan invalid: %v", err)
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run(options{}); err == nil {
		t.Fatal("missing-flag run must fail")
	}
}

// Arrivals are lead-time ahead of their starts, clamped at zero, and
// replayed in arrival order whatever order the batch lists them in.
func TestBuildTrace(t *testing.T) {
	reqs := workload.Set{
		{User: 2, Video: 1, Start: 3 * simtime.Time(simtime.Hour)},
		{User: 1, Video: 0, Start: simtime.Time(simtime.Hour)},
		{User: 0, Video: 0, Start: simtime.Time(simtime.Hour)},
	}
	trace := buildTrace(reqs, 2*simtime.Hour)
	want := []arrival{
		{at: 0, r: reqs[2]},
		{at: 0, r: reqs[1]},
		{at: simtime.Time(simtime.Hour), r: reqs[0]},
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, trace[i], want[i])
		}
	}
}

func TestParseHelpers(t *testing.T) {
	for _, m := range []sorp.HeatMetric{sorp.Period, sorp.PeriodPerCost, sorp.Space, sorp.SpacePerCost} {
		got, err := sorp.ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("sorp.ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := sorp.ParseMetric("x"); err == nil {
		t.Error("expected metric parse error")
	}
	for _, p := range []ivs.Policy{ivs.CacheOnRoute, ivs.CacheAtDestination, ivs.NoCaching} {
		got, err := ivs.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ivs.ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ivs.ParsePolicy("x"); err == nil {
		t.Error("expected policy parse error")
	}
}
