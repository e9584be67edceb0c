package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func fixtures(t *testing.T) (topoP, catP, reqP, schedP string) {
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
	model := cost.NewUniformModel(topo, cat, 2, 400)
	out, err := scheduler.Run(model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	topoP = filepath.Join(dir, "topo.json")
	f, _ := os.Create(topoP)
	if err := topo.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	catP = filepath.Join(dir, "catalog.json")
	f, _ = os.Create(catP)
	if err := cat.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reqP = filepath.Join(dir, "requests.json")
	if err := cli.SaveJSON(reqP, reqs); err != nil {
		t.Fatal(err)
	}
	schedP = filepath.Join(dir, "schedule.json")
	if err := cli.SaveJSON(schedP, out.Schedule); err != nil {
		t.Fatal(err)
	}
	return
}

func baseOptions(topoP, catP, schedP, reqP string) options {
	return options{topoPath: topoP, catPath: catP, schedPath: schedP, reqPath: reqP, srate: 2, nrate: 400}
}

func TestSimulateCleanSchedule(t *testing.T) {
	topoP, catP, reqP, schedP := fixtures(t)
	var sb strings.Builder
	o := baseOptions(topoP, catP, schedP, reqP)
	o.verbose, o.auditRun = true, true
	if err := run(&sb, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"validation        ok", "violations        0", "simulated cost", "links:", "storages:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Error("cost mismatch warning on a clean schedule")
	}
	if strings.Contains(out, "faults") {
		t.Error("fault summary printed without a scenario")
	}
}

func TestSimulateWithoutRequests(t *testing.T) {
	topoP, catP, _, schedP := fixtures(t)
	var sb strings.Builder
	if err := run(&sb, baseOptions(topoP, catP, schedP, "")); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(sb.String(), "validation") {
		t.Error("validation line present without -requests")
	}
}

// faultFixtures builds a triangle infrastructure (VW—IS1—IS2 plus a direct
// VW—IS2 edge) and a schedule whose 90m and 180m services hang off a cached
// copy at IS2, so cutting the VW—IS2 link just before 90m knocks both out
// while an alternate route survives.
func faultFixtures(t testing.TB) (topoP, catP, reqP, schedP string, sc *faults.Scenario) {
	t.Helper()
	dir := t.TempDir()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.Connect(vw, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(1, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	u2 := topo.UsersAt(is2)
	reqs := workload.Set{
		{User: topo.UsersAt(is1)[0], Video: 0, Start: 0},
		{User: u2[0], Video: 0, Start: simtime.Time(90 * simtime.Minute)},
		{User: u2[1], Video: 0, Start: simtime.Time(180 * simtime.Minute)},
	}
	model := cost.NewUniformModel(topo, cat, 2, 400)
	out, err := scheduler.Run(model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e02, ok := topo.EdgeBetween(vw, is2)
	if !ok {
		t.Fatal("no VW-IS2 edge")
	}
	sc = &faults.Scenario{Faults: []faults.Fault{{
		Kind: faults.LinkDown, Edge: e02,
		From: simtime.Time(85 * simtime.Minute), Until: simtime.Time(95 * simtime.Minute),
	}}}
	topoP = filepath.Join(dir, "topo.json")
	f, _ := os.Create(topoP)
	if err := topo.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	catP = filepath.Join(dir, "catalog.json")
	f, _ = os.Create(catP)
	if err := cat.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reqP = filepath.Join(dir, "requests.json")
	if err := cli.SaveJSON(reqP, reqs); err != nil {
		t.Fatal(err)
	}
	schedP = filepath.Join(dir, "schedule.json")
	if err := cli.SaveJSON(schedP, out.Schedule); err != nil {
		t.Fatal(err)
	}
	return
}

// TestSimulateWithFaultsAndRepair is the end-to-end -faults/-repair
// demonstration: inject a link failure (warehouse alive), observe missed
// services, and repair them with zero losses.
func TestSimulateWithFaultsAndRepair(t *testing.T) {
	topoP, catP, reqP, schedP, sc := faultFixtures(t)
	dir := t.TempDir()
	faultsP := filepath.Join(dir, "scenario.json")
	f, err := os.Create(faultsP)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sb strings.Builder
	o := baseOptions(topoP, catP, schedP, reqP)
	o.faultsPath = faultsP
	o.repairPolicy = "reroute"
	o.repairOut = filepath.Join(dir, "repaired.json")
	if err := run(&sb, o); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"faults            1", "inject: link", "repair(reroute)", "missed 0", "delta", "degraded cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "repaired 0/0") {
		t.Errorf("scenario impacted nothing; demonstration proves nothing:\n%s", out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("clean-run cost cross-check fired under faults:\n%s", out)
	}
	if _, err := os.Stat(o.repairOut); err != nil {
		t.Errorf("repaired schedule not written: %v", err)
	}
}

// TestSimulateGeneratedFaults: -fault-seed synthesizes a scenario when no
// file is given.
func TestSimulateGeneratedFaults(t *testing.T) {
	topoP, catP, _, schedP := fixtures(t)
	var sb strings.Builder
	o := baseOptions(topoP, catP, schedP, "")
	o.faultSeed = 42
	if err := run(&sb, o); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "inject:") {
		t.Errorf("no injected faults reported:\n%s", sb.String())
	}
}

func TestSimulateErrors(t *testing.T) {
	topoP, catP, reqP, schedP := fixtures(t)
	var sb strings.Builder
	o := baseOptions("", catP, schedP, reqP)
	if err := run(&sb, o); err == nil {
		t.Error("expected missing-flag error")
	}
	o = baseOptions(topoP, catP, schedP, filepath.Join(t.TempDir(), "none.json"))
	if err := run(&sb, o); err == nil {
		t.Error("expected load error")
	}
	// -repair without a scenario is a usage error.
	o = baseOptions(topoP, catP, schedP, "")
	o.repairPolicy = "reroute"
	if err := run(&sb, o); err == nil {
		t.Error("expected -repair-without-faults error")
	}
	// Unknown repair policy.
	o.faultSeed = 1
	o.repairPolicy = "pray"
	if err := run(&sb, o); err == nil {
		t.Error("expected unknown-policy error")
	}
}

// malformedSchedules are schedule files that decode but cannot be indexed by:
// on faultFixtures' rig (nodes 0–2, users 0–2, one title) the first two used
// to panic the simulator, and the last two were simulated as clean and priced
// — user 77 of 3 included.
var malformedSchedules = []struct{ name, body, want string }{
	{"nil file", `{"files":{"0":null}}`, "holds no schedule"},
	{"residency at node 9999", `{"files":{"0":{"video":0,
		"deliveries":[{"video":0,"user":0,"start":0,"route":[0,1],"source_residency":-1}],
		"residencies":[{"video":0,"loc":9999,"src":0,"load":0,"last_service":0,"fed_by":0,"services":[]}]}}}`, "node 9999"},
	{"empty route", `{"files":{"0":{"video":0,
		"deliveries":[{"video":0,"user":0,"start":0,"route":[],"source_residency":-1}],"residencies":[]}}}`, "empty route"},
	{"user 77 of 3", `{"files":{"0":{"video":0,
		"deliveries":[{"video":0,"user":77,"start":0,"route":[0,1],"source_residency":-1}],"residencies":[]}}}`, "unknown user 77"},
}

// A schedule file is checked structurally before the simulator indexes it,
// with or without -requests: a malformed one is an error naming the defect.
func TestMalformedScheduleIsAnError(t *testing.T) {
	topoP, catP, _, _, _ := faultFixtures(t)
	dir := t.TempDir()
	for _, tc := range malformedSchedules {
		schedP := filepath.Join(dir, "schedule.json")
		if err := os.WriteFile(schedP, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(&sb, baseOptions(topoP, catP, schedP, "")); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want an error naming %q\n%s", tc.name, err, tc.want, sb.String())
		}
	}
}

// FuzzScheduleFile feeds arbitrary bytes to vspsim as the -schedule file, run
// once under a generated fault scenario with repair, and once against the
// requests with the audit bundle: between them the simulator, the repairer
// and billing see every input. run may refuse it; it must not panic.
func FuzzScheduleFile(f *testing.F) {
	topoP, catP, reqP, schedP, _ := faultFixtures(f)
	good, err := os.ReadFile(schedP)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, tc := range malformedSchedules {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		schedP := filepath.Join(t.TempDir(), "schedule.json")
		if err := os.WriteFile(schedP, body, 0o644); err != nil {
			t.Fatal(err)
		}
		faulted := baseOptions(topoP, catP, schedP, "")
		faulted.faultSeed, faulted.repairPolicy = 1, "reroute"
		_ = run(io.Discard, faulted)
		audited := baseOptions(topoP, catP, schedP, reqP)
		audited.auditRun = true
		_ = run(io.Discard, audited)
	})
}
