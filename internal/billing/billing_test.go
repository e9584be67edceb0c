package billing

import (
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestAttributeFig2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Attribute(f.Model, out.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Sum property: the statement equals Ψ(S) = $108.45.
	if !st.Total().ApproxEqual(out.FinalCost, 1e-9) {
		t.Fatalf("statement %v != Ψ(S) %v", st.Total(), out.FinalCost)
	}
	if len(st.Lines) != 3 {
		t.Fatalf("lines = %d", len(st.Lines))
	}
	// Hand-checked invoice for the optimal Fig2 schedule:
	//   U1: direct stream VW->IS1            network 64.80, storage 0
	//   U2: relay IS1->IS2, extends IS1 copy network 32.40, storage 5.625
	//   U3: local at IS2, extends IS2 copy   network  0.00, storage 5.625
	wantNet := []float64{64.8, 32.4, 0}
	wantSto := []float64{0, 5.625, 5.625}
	for i, l := range st.Lines {
		if !l.Network.ApproxEqual(units.Money(wantNet[i]), 1e-6) {
			t.Errorf("line %d network = %v, want %g", i, l.Network, wantNet[i])
		}
		if !l.Storage.ApproxEqual(units.Money(wantSto[i]), 1e-6) {
			t.Errorf("line %d storage = %v, want %g", i, l.Storage, wantSto[i])
		}
	}
	// No user pays more than a direct stream would have cost them.
	for i, l := range st.Lines {
		direct := f.Model.TransferCost(0, f.Topo.Warehouse(), f.Topo.User(l.User).Local)
		if float64(l.Total()) > float64(direct)+1e-9 {
			t.Errorf("line %d total %v exceeds direct alternative %v", i, l.Total(), direct)
		}
	}
}

// TestAttributeSumsToPsiAtScale is the central billing property across
// random scenarios: line totals sum exactly to Ψ(S), and every charge is
// non-negative.
func TestAttributeSumsToPsiAtScale(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rig, err := testutil.NewPaperRig(9, 8, 30, 5*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: seed + 40})
		if err != nil {
			t.Fatal(err)
		}
		out, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Attribute(rig.Model, out.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Total().ApproxEqual(out.FinalCost, 1e-6) {
			t.Fatalf("seed %d: statement %v != Ψ(S) %v", seed, st.Total(), out.FinalCost)
		}
		if len(st.Lines) != len(reqs) {
			t.Fatalf("seed %d: %d lines for %d requests", seed, len(st.Lines), len(reqs))
		}
		var sum units.Money
		for _, l := range st.Lines {
			if l.Network < 0 || l.Storage < 0 {
				t.Fatalf("seed %d: negative charge %+v", seed, l)
			}
			sum += l.Total()
		}
		if !sum.ApproxEqual(st.Total(), 1e-6) {
			t.Fatalf("seed %d: line sum %v != total %v", seed, sum, st.Total())
		}
	}
}

func TestAttributeDirectSchedule(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.RunDirect(f.Model, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Attribute(f.Model, out.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if st.Storage != 0 {
		t.Error("direct schedule must bill no storage")
	}
	for _, l := range st.Lines {
		if l.Storage != 0 {
			t.Error("direct line bills storage")
		}
	}
}

func TestStatementWrite(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Attribute(f.Model, out.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := st.Write(&sb); err != nil {
		t.Fatal(err)
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "TOTAL") || !strings.Contains(outStr, "$108.4500") {
		t.Errorf("invoice missing totals:\n%s", outStr)
	}
	// Header + 3 lines + total.
	if got := len(strings.Split(strings.TrimSpace(outStr), "\n")); got != 5 {
		t.Errorf("invoice lines = %d", got)
	}
}

func TestAttributeRejectsCorruptSchedule(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := out.Schedule.Clone()
	for _, fs := range bad.Files {
		for di, d := range fs.Deliveries {
			if d.SourceResidency == 0 {
				fs.Deliveries[di].SourceResidency = schedule.NoResidency // orphan the copy
			}
		}
	}
	if _, err := Attribute(f.Model, bad); err == nil {
		t.Error("expected error for serviceless residency")
	}
	bad2 := out.Schedule.Clone()
	for _, fs := range bad2.Files {
		if len(fs.Residencies) > 0 {
			fs.Residencies[0].LastService += 99999 // inconsistent booked cost
		}
	}
	if _, err := Attribute(f.Model, bad2); err == nil {
		t.Error("expected error for inconsistent LastService")
	}
}

// A reader-less copy that books exactly nothing — what a rolling-horizon
// commit leaves when a frozen copy is clipped to zero span and resolution
// re-plans its readers elsewhere — is not an inconsistency: the statement
// skips it and still sums to Ψ(S).
func TestAttributeSkipsZeroCostReaderlessResidency(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Schedule.Clone()
	added := 0
	for _, fs := range s.Files {
		if len(fs.Residencies) == 0 {
			continue
		}
		clipped := fs.Residencies[0]
		clipped.LastService = clipped.Load
		fs.Residencies = append(fs.Residencies, clipped)
		added++
	}
	if added == 0 {
		t.Fatal("fixture bug: no residency to clip")
	}
	st, err := Attribute(f.Model, s)
	if err != nil {
		t.Fatalf("zero-cost reader-less residency refused: %v", err)
	}
	if !st.Total().ApproxEqual(out.FinalCost, 1e-9) {
		t.Fatalf("statement %v != Ψ(S) %v", st.Total(), out.FinalCost)
	}
}
