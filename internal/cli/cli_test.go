package cli

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// writeFixtures produces a consistent topo/catalog/requests/schedule file
// quartet in dir.
func writeFixtures(t *testing.T, dir string) (topoP, catP, reqP, schedP string) {
	t.Helper()
	topo := topology.Star(topology.GenConfig{Storages: 3, UsersPerStorage: 2, Capacity: 10 * units.GB})
	cat, err := media.Uniform(4, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(topo, cat, workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewUniformModel(topo, cat, 2, 400)
	out, err := scheduler.Run(model, reqs, scheduler.Config{})
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
	if err := SaveJSON(reqP, reqs); err != nil {
		t.Fatal(err)
	}
	schedP = filepath.Join(dir, "schedule.json")
	if err := SaveJSON(schedP, out.Schedule); err != nil {
		t.Fatal(err)
	}
	return topoP, catP, reqP, schedP
}

func TestRoundTripLoaders(t *testing.T) {
	dir := t.TempDir()
	topoP, catP, reqP, schedP := writeFixtures(t, dir)

	topo, err := LoadTopology(topoP)
	if err != nil {
		t.Fatalf("LoadTopology: %v", err)
	}
	if topo.NumStorages() != 3 || topo.NumUsers() != 6 {
		t.Errorf("topology: %d storages, %d users", topo.NumStorages(), topo.NumUsers())
	}
	cat, err := LoadCatalog(catP)
	if err != nil {
		t.Fatalf("LoadCatalog: %v", err)
	}
	if cat.Len() != 4 {
		t.Errorf("catalog: %d", cat.Len())
	}
	reqs, err := LoadRequests(reqP)
	if err != nil {
		t.Fatalf("LoadRequests: %v", err)
	}
	if len(reqs) != 6 {
		t.Errorf("requests: %d", len(reqs))
	}
	sched, err := LoadSchedule(schedP)
	if err != nil {
		t.Fatalf("LoadSchedule: %v", err)
	}
	// The reloaded schedule must still validate against the reloaded
	// topology/catalog/requests — the full persistence round trip.
	if err := sched.Validate(topo, cat, reqs); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	// And cost identically.
	model := cost.NewUniformModel(topo, cat, 2, 400)
	orig, err := scheduler.Run(model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := model.ScheduleCost(sched); !got.ApproxEqual(orig.FinalCost, 1e-6) {
		t.Errorf("round-tripped cost %v != %v", got, orig.FinalCost)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.json")
	if _, err := LoadTopology(missing); err == nil {
		t.Error("LoadTopology must fail on a missing file")
	}
	if _, err := LoadCatalog(missing); err == nil {
		t.Error("LoadCatalog must fail on a missing file")
	}
	if _, err := LoadRequests(missing); err == nil {
		t.Error("LoadRequests must fail on a missing file")
	}
	if _, err := LoadSchedule(missing); err == nil {
		t.Error("LoadSchedule must fail on a missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRequests(bad); err == nil {
		t.Error("LoadRequests must fail on broken JSON")
	}
	if _, err := LoadSchedule(bad); err == nil {
		t.Error("LoadSchedule must fail on broken JSON")
	}
}

func TestBuildModelRates(t *testing.T) {
	topo := topology.Star(topology.GenConfig{Storages: 2, UsersPerStorage: 1, Capacity: units.GB})
	cat, err := media.Uniform(1, units.GBf(1), simtime.Hour, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewUniformModel(topo, cat, 3600e9, 1e9)
	is1, _ := topo.Lookup("IS1")
	if got := float64(m.Book().SRate(is1)); got != 1 {
		t.Errorf("srate = %g, want 1 $/byte·s", got)
	}
	if got := float64(m.Book().NRate(0)); got != 1 {
		t.Errorf("nrate = %g, want 1 $/byte", got)
	}
}

func TestSaveJSONStdout(t *testing.T) {
	// "-" writes to stdout without error.
	if err := SaveJSON("-", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	// Unwritable path errors.
	if err := SaveJSON(filepath.Join(t.TempDir(), "no", "such", "dir.json"), 1); err == nil {
		t.Error("expected error for unwritable path")
	}
}

func TestLoadRequestsAuto(t *testing.T) {
	dir := t.TempDir()
	topo := topology.Star(topology.GenConfig{Storages: 2, UsersPerStorage: 2, Capacity: 10 * units.GB})
	cat, err := media.Uniform(3, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	// CSV path.
	csvPath := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(csvPath, []byte("user,video,start_seconds\n0,1,100\n2,0,50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := LoadRequestsAuto(csvPath, topo, cat)
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	if len(set) != 2 || set[0].Start != 50 {
		t.Errorf("csv set = %+v", set)
	}
	// JSON path.
	jsonPath := filepath.Join(dir, "reqs.json")
	if err := SaveJSON(jsonPath, set); err != nil {
		t.Fatal(err)
	}
	set2, err := LoadRequestsAuto(jsonPath, topo, cat)
	if err != nil || len(set2) != 2 {
		t.Errorf("json: %v, %v", set2, err)
	}
	// Missing CSV errors.
	if _, err := LoadRequestsAuto(filepath.Join(dir, "none.csv"), topo, cat); err == nil {
		t.Error("expected missing csv error")
	}
}
