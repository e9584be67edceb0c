package vsp_test

import (
	"context"
	"sort"
	"testing"

	vsp "github.com/vodsim/vsp"
)

// newSystem builds a moderate test system through the public API only.
func newSystem(t *testing.T) (*vsp.System, vsp.RequestSet) {
	t.Helper()
	topo := vsp.MetroTopology(vsp.GenConfig{
		Storages: 9, UsersPerStorage: 6, Capacity: vsp.GB(6),
	}, 17)
	cat, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vsp.NewSystem(topo, cat, vsp.PerGBHour(2), vsp.PerGB(400))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := vsp.GenerateWorkload(topo, cat, vsp.WorkloadConfig{Alpha: 0.1, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	return sys, reqs
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys, reqs := newSystem(t)
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{Metric: vsp.SpacePerCost})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sys.Validate(out.Schedule, reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n := len(sys.Overflows(out.Schedule)); n != 0 {
		t.Errorf("final schedule has %d overflows", n)
	}
	direct, err := sys.ScheduleDirect(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(out.FinalCost) > float64(direct.FinalCost) {
		t.Errorf("scheduler %v worse than direct %v", out.FinalCost, direct.FinalCost)
	}
	storage, network := sys.CostSplit(out.Schedule)
	if !(storage + network).ApproxEqual(sys.Cost(out.Schedule), 1e-6) {
		t.Error("cost split does not sum")
	}
	rep := sys.Simulate(out.Schedule)
	if !rep.OK() {
		t.Fatalf("simulator violations: %v", rep.Violations)
	}
	if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-3) {
		t.Errorf("simulated %v != analytic %v", rep.TotalCost(), out.FinalCost)
	}
}

func TestPublicAPIBandwidth(t *testing.T) {
	sys, reqs := newSystem(t)
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A generous cap leaves nothing to do.
	caps := sys.UniformLinkCapacities(vsp.Mbps(10000))
	if n := len(sys.LinkOverloads(out.Schedule, caps)); n != 0 {
		t.Errorf("overloads under generous cap: %d", n)
	}
	res, err := sys.ResolveBandwidth(out.Schedule, caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes != 0 {
		t.Error("no-op resolution rerouted streams")
	}
	// A tight cap produces overloads; resolution must not corrupt the
	// schedule even when some remain unresolved.
	tight := sys.UniformLinkCapacities(vsp.Mbps(10))
	res, err = sys.ResolveBandwidth(out.Schedule, tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(res.Schedule, reqs); err != nil {
		t.Fatalf("rerouted schedule invalid: %v", err)
	}
}

func TestPublicAPIRateOverrides(t *testing.T) {
	sys, reqs := newSystem(t)
	before, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Raising every link's rate must raise the total cost.
	for e := 0; e < sys.Topology().NumEdges(); e++ {
		sys.SetLinkRate(e, vsp.PerGB(4000))
	}
	after, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if after.FinalCost <= before.FinalCost {
		t.Errorf("10x link rates did not raise cost: %v -> %v", before.FinalCost, after.FinalCost)
	}
	// Warehouse storage rate stays pinned at zero.
	if err := sys.SetStorageRate(sys.Topology().Warehouse(), vsp.PerGBHour(1)); err == nil {
		t.Error("expected error setting warehouse rate")
	}
}

func TestNewSystemErrors(t *testing.T) {
	topo := vsp.StarTopology(vsp.GenConfig{Storages: 2, UsersPerStorage: 1, Capacity: vsp.GB(5)})
	if _, err := vsp.NewSystem(nil, nil, 0, 0); err == nil {
		t.Error("expected error for nil inputs")
	}
	empty := &vsp.Catalog{}
	if _, err := vsp.NewSystem(topo, empty, 0, 0); err == nil {
		t.Error("expected error for empty catalog")
	}
}

func TestPublicAPINodeBandwidth(t *testing.T) {
	sys, reqs := newSystem(t)
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	caps := sys.UniformNodeCapacities(vsp.Mbps(10000))
	res, err := sys.ResolveNodeBandwidth(out.Schedule, caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Error("generous node caps must not trigger moves")
	}
	tight := sys.UniformNodeCapacities(vsp.Mbps(6))
	res, err = sys.ResolveNodeBandwidth(out.Schedule, tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(res.Schedule, reqs); err != nil {
		t.Fatalf("node-resolved schedule invalid: %v", err)
	}
}

func TestPublicAPIAnalyze(t *testing.T) {
	sys, reqs := newSystem(t)
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Analyze(out.Schedule)
	if rep.Requests != len(reqs) {
		t.Errorf("analysis requests = %d", rep.Requests)
	}
	if !rep.TotalCost.ApproxEqual(out.FinalCost, 1e-6) {
		t.Errorf("analysis total %v != %v", rep.TotalCost, out.FinalCost)
	}
}

func TestPublicAPIOnlineBaseline(t *testing.T) {
	sys, reqs := newSystem(t)
	off, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := sys.ScheduleOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if on.Requests != len(reqs) {
		t.Errorf("online served %d of %d", on.Requests, len(reqs))
	}
	if float64(off.FinalCost) > float64(on.TotalCost())*1.001 {
		t.Errorf("offline %v lost to online %v", off.FinalCost, on.TotalCost())
	}
}

func TestPublicAPIOptimalFile(t *testing.T) {
	sys, _ := newSystem(t)
	users := sys.Topology().Users()
	reqs := vsp.RequestSet{
		{User: users[0].ID, Video: 0, Start: 0},
		{User: users[1].ID, Video: 0, Start: vsp.Time(2 * vsp.Hour)},
	}
	fs, best, err := sys.OptimalFile(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if best <= 0 || len(fs.Deliveries) != 2 {
		t.Errorf("optimal: %v, %d deliveries", best, len(fs.Deliveries))
	}
}

func TestPublicAPIPlacement(t *testing.T) {
	topo := vsp.MetroTopology(vsp.GenConfig{Storages: 9, UsersPerStorage: 10, Capacity: vsp.GB(10)}, 13)
	cat, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vsp.NewSystem(topo, cat, vsp.PerGBHour(1), vsp.PerGB(900))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPreloadFactor(0.25); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPreloadFactor(2); err == nil {
		t.Error("expected error for factor > 1")
	}
	plan, err := sys.PlanPlacement(vsp.PlacementConfig{Alpha: 0.1, CapacityFraction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumCopies() == 0 {
		t.Fatal("no placements")
	}
	reqs, err := vsp.GenerateWorkload(topo, cat, vsp.WorkloadConfig{Alpha: 0.1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{Seeds: plan.Seeds()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(out.Schedule, reqs); err != nil {
		t.Fatalf("seeded schedule invalid: %v", err)
	}
	// Simulator handles pre-placement bulk flows.
	rep := sys.Simulate(out.Schedule)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if !rep.TotalCost().ApproxEqual(out.FinalCost, 1e-3) {
		t.Errorf("simulated %v != analytic %v", rep.TotalCost(), out.FinalCost)
	}
	// Billing separates the operator-borne infrastructure.
	bill, err := sys.Bill(out.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if bill.Infrastructure <= 0 {
		t.Error("seeded schedule must carry infrastructure cost")
	}
	if !bill.Total().ApproxEqual(out.FinalCost, 1e-6) {
		t.Errorf("bill total %v != Ψ(S) %v", bill.Total(), out.FinalCost)
	}
}

func TestPublicAPIAudit(t *testing.T) {
	sys, reqs := newSystem(t)
	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Audit(out.Schedule, reqs)
	if !rep.OK() {
		t.Fatalf("audit findings: %v", rep.Findings)
	}
	// Corrupt the schedule: audit must notice.
	bad := out.Schedule.Clone()
	for _, fs := range bad.Files {
		if len(fs.Deliveries) > 0 {
			fs.Deliveries[0].Start += 1
			break
		}
	}
	if sys.Audit(bad, reqs).OK() {
		t.Error("audit passed a corrupted schedule")
	}
}

// TestPublicAPIDurableHorizon drives the crash-safe intake through the
// façade: submit, advance, close, then reopen the same directory and
// verify the committed schedule survived.
func TestPublicAPIDurableHorizon(t *testing.T) {
	sys, reqs := newSystem(t)
	dir := t.TempDir()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })
	batch := reqs[:8]

	hz, err := sys.OpenDurableHorizon(dir, vsp.HorizonConfig{Fsync: vsp.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		if _, err := hz.Submit(0, r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	to := batch[len(batch)-1].Start + 1
	if _, err := hz.Advance(context.Background(), to); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	cost, epoch := hz.Cost(), hz.Epoch()
	if cost <= 0 || epoch != 1 {
		t.Fatalf("after advance: cost=%v epoch=%d", cost, epoch)
	}
	if err := hz.Close(); err != nil {
		t.Fatal(err)
	}

	hz2, err := sys.OpenDurableHorizon(dir, vsp.HorizonConfig{Fsync: vsp.FsyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer hz2.Close()
	if !hz2.Recovery().Recovered {
		t.Error("reopen did not report recovery")
	}
	if hz2.Cost() != cost || hz2.Epoch() != epoch || hz2.Horizon() != to {
		t.Errorf("recovered cost=%v epoch=%d horizon=%v, want %v/%d/%v",
			hz2.Cost(), hz2.Epoch(), hz2.Horizon(), cost, epoch, to)
	}
	if rep := sys.Audit(hz2.Committed(), vsp.RequestSet(batch)); !rep.OK() {
		t.Errorf("recovered schedule fails audit: %v", rep.Findings)
	}
}
