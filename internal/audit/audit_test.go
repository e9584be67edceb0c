package audit

import (
	"testing"

	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestAuditCleanSchedule(t *testing.T) {
	rig, err := testutil.NewPaperRig(8, 7, 25, 5*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(rig.Model, reqs, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(rig.Model, out.Schedule, reqs)
	if !rep.OK() {
		t.Fatalf("clean schedule failed audit: %v", rep.Findings)
	}
	if rep.Overflows != 0 {
		t.Errorf("overflows = %d", rep.Overflows)
	}
	if !rep.AnalyticCost.ApproxEqual(out.FinalCost, 1e-6) {
		t.Error("analytic cost mismatch")
	}
	if !rep.SimulatedCost.ApproxEqual(rep.AnalyticCost, 1e-3) ||
		!rep.BilledCost.ApproxEqual(rep.AnalyticCost, 1e-3) {
		t.Errorf("cost triangle broken: %v / %v / %v", rep.AnalyticCost, rep.SimulatedCost, rep.BilledCost)
	}
}

func TestAuditFlagsCorruption(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := scheduler.Run(f.Model, f.Requests, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(s *schedule.Schedule, reqs *workload.Set)
		want string
	}{
		{"unserved request", func(s *schedule.Schedule, reqs *workload.Set) {
			*reqs = append(*reqs, workload.Request{User: 0, Video: 0, Start: 99999})
		}, "validate"},
		{"inflated residency", func(s *schedule.Schedule, reqs *workload.Set) {
			for _, fs := range s.Files {
				if len(fs.Residencies) > 0 {
					fs.Residencies[0].LastService += 7200
				}
			}
		}, "validate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := out.Schedule.Clone()
			reqs := append(workload.Set(nil), f.Requests...)
			c.mut(s, &reqs)
			rep := Run(f.Model, s, reqs)
			if rep.OK() {
				t.Fatal("audit passed a corrupted schedule")
			}
			found := false
			for _, fd := range rep.Findings {
				if fd.Check == c.want {
					found = true
				}
				if fd.String() == "" {
					t.Error("empty finding string")
				}
			}
			if !found {
				t.Errorf("expected a %q finding, got %v", c.want, rep.Findings)
			}
		})
	}
}

func TestAuditFlagsOverflow(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBSec(5.0/3600), pricing.PerGB(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := scheduler.Run(rig.Model, reqs, scheduler.Config{SkipResolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Overflows == 0 {
		t.Skip("rig did not overflow")
	}
	rep := Run(rig.Model, raw.Schedule, reqs)
	if rep.OK() {
		t.Fatal("audit passed an over-committed schedule")
	}
	if rep.Overflows == 0 {
		t.Error("overflow count not reported")
	}
}
