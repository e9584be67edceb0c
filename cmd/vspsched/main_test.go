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

func TestRunSchedulesAndSaves(t *testing.T) {
	topoP, catP, reqP := fixtures(t)
	outP := filepath.Join(t.TempDir(), "schedule.json")
	if err := run(topoP, catP, reqP, 2, 400, "space-per-cost", "cache-on-route", outP, true, false, false, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	sched, err := cli.LoadSchedule(outP)
	if err != nil {
		t.Fatalf("saved schedule unreadable: %v", err)
	}
	if sched.NumDeliveries() != 6 {
		t.Errorf("deliveries = %d, want 6", sched.NumDeliveries())
	}
}

func TestRunWithReportAndAnalysis(t *testing.T) {
	topoP, catP, reqP := fixtures(t)
	if err := run(topoP, catP, reqP, 2, 400, "period", "cache-at-destination", "", false, true, true, 2); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	topoP, catP, reqP := fixtures(t)
	if err := run("", catP, reqP, 2, 400, "period", "cache-on-route", "", true, false, false, 0); err == nil {
		t.Error("expected missing-flag error")
	}
	if err := run(topoP, catP, reqP, 2, 400, "bogus", "cache-on-route", "", true, false, false, 0); err == nil {
		t.Error("expected bad-metric error")
	}
	if err := run(topoP, catP, reqP, 2, 400, "period", "bogus", "", true, false, false, 0); err == nil {
		t.Error("expected bad-policy error")
	}
	if err := run(filepath.Join(t.TempDir(), "none.json"), catP, reqP, 2, 400, "period", "cache-on-route", "", true, false, false, 0); err == nil {
		t.Error("expected load error")
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
