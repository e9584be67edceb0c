package vodsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// TestEmptyScenarioIsByteIdentical is the repair-invariant property test:
// executing any schedule under an empty fault scenario must reproduce the
// fault-free simulator output exactly — same Ψ(S), zero violations, and a
// byte-identical report.
func TestEmptyScenarioIsByteIdentical(t *testing.T) {
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
		plain := Execute(rig.Model.Book(), rig.Catalog, out.Schedule)
		under := ExecuteScenario(rig.Model.Book(), rig.Catalog, out.Schedule, &faults.Scenario{})
		a, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(under)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: empty scenario diverged from fault-free run:\n%s\n%s", seed, a, b)
		}
		if !plain.OK() {
			t.Fatalf("seed %d: fault-free run has violations: %v", seed, plain.Violations)
		}
	}
}

// TestNodeOutageKillsDownstream: taking IS2 down across the 90-minute
// service start misses both IS2 services and the IS2 copy never loads.
func TestNodeOutageKillsDownstream(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Faults: []faults.Fault{{
		Kind: faults.NodeOutage, Node: f.IS2,
		From: simtime.Time(85 * simtime.Minute), Until: simtime.Time(100 * simtime.Minute),
	}}}
	rep := ExecuteScenario(f.Model.Book(), f.Model.Catalog(), out.Schedule, sc)
	if !rep.OK() {
		t.Fatalf("fault injection produced schedule violations: %v", rep.Violations)
	}
	// Delivery IS1->IS2 at 90m starts inside the outage -> missed; the
	// IS2 copy it fed never loads; the 180m local hit reads a dead copy
	// -> missed. Only the t=0 VW->IS1 stream survives.
	if rep.Missed != 2 || rep.Severed != 0 {
		t.Errorf("missed=%d severed=%d, want 2/0\nnotes: %v", rep.Missed, rep.Severed, rep.FaultNotes)
	}
	if rep.Streams != 1 {
		t.Errorf("streams = %d, want 1", rep.Streams)
	}
	if rep.DeadResidencies != 1 {
		t.Errorf("dead residencies = %d, want 1", rep.DeadResidencies)
	}
	if rep.CacheLoads != 1 {
		t.Errorf("cache loads = %d, want 1 (dead copy never loads)", rep.CacheLoads)
	}
	free := Execute(f.Model.Book(), f.Model.Catalog(), out.Schedule)
	if rep.TotalCost() >= free.TotalCost() {
		t.Errorf("degraded run cost %v not below fault-free %v", rep.TotalCost(), free.TotalCost())
	}
}

// TestOutageSeversInFlightStream: an IS1 outage mid-playback severs the
// stream feeding it and cascades to every downstream service.
func TestOutageSeversInFlightStream(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Faults: []faults.Fault{{
		Kind: faults.NodeOutage, Node: f.IS1,
		From: simtime.Time(30 * simtime.Minute), Until: simtime.Time(60 * simtime.Minute),
	}}}
	rep := ExecuteScenario(f.Model.Book(), f.Model.Catalog(), out.Schedule, sc)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// The t=0 VW->IS1 stream is in flight at onset -> severed; the IS1
	// copy dies at onset; the 90m and 180m services cascade to missed.
	if rep.Severed != 1 || rep.Missed != 2 {
		t.Errorf("severed=%d missed=%d, want 1/2\nnotes: %v", rep.Severed, rep.Missed, rep.FaultNotes)
	}
	if rep.DeadResidencies != 2 {
		t.Errorf("dead residencies = %d, want 2", rep.DeadResidencies)
	}
	// Severed stream carried only a third of the file: network bytes must
	// reflect the cut, not the full playback.
	v := f.Model.Catalog().Video(0)
	wantBytes := float64(v.Rate) * (30 * 60.0)
	var got float64
	for _, lu := range rep.Links {
		got += float64(lu.Bytes)
	}
	if got < wantBytes*0.99 || got > wantBytes*1.01 {
		t.Errorf("link bytes %.0f, want ~%.0f (severed at 30m)", got, wantBytes)
	}
}

// TestLinkDownSeversStream: a mid-stream link failure cuts the one stream
// routed over it at onset.
func TestLinkDownSeversStream(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	edge, ok := f.Topo.EdgeBetween(f.VW, f.IS1)
	if !ok {
		t.Fatal("no VW-IS1 edge")
	}
	sc := &faults.Scenario{Faults: []faults.Fault{{
		Kind: faults.LinkDown, Edge: edge,
		From: simtime.Time(85 * simtime.Minute), Until: simtime.Time(100 * simtime.Minute),
	}}}
	rep := ExecuteScenario(f.Model.Book(), f.Model.Catalog(), out.Schedule, sc)
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Severed != 1 {
		t.Errorf("severed = %d, want 1 (VW->IS1 cut at 85m)\nnotes: %v", rep.Severed, rep.FaultNotes)
	}
	// The copy at IS1 was being written from the severed stream: it dies
	// at the cut, so the 90m extension read and everything after miss.
	if rep.Missed != 2 {
		t.Errorf("missed = %d, want 2\nnotes: %v", rep.Missed, rep.FaultNotes)
	}
}
