//go:build soak

// Soak test: excluded from the default suite (build tag "soak"); run with
//
//	go test -tags soak -run TestSoak -v .
//
// It sweeps many random paper-scale scenarios through the full pipeline and
// audits every schedule with the complete verification bundle.
package vsp_test

import (
	"testing"

	vsp "github.com/vodsim/vsp"
	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/testutil"
)

func TestSoakRandomScenarios(t *testing.T) {
	alphas := []float64{0.1, 0.271, 0.5, 0.7, 0.9}
	caps := []float64{4, 5, 8, 14}
	for seed := int64(0); seed < 50; seed++ {
		p := testutil.Params{
			Storages:        9 + int(seed%11),
			UsersPerStorage: 4 + int(seed%7),
			Titles:          30 + int(seed%471),
			CapacityGB:      caps[seed%int64(len(caps))],
			SRateGBHour:     float64(1 + seed%8),
			NRateGB:         float64(300 + 100*(seed%8)),
			Alpha:           alphas[seed%int64(len(alphas))],
			RequestsPerUser: 1 + int(seed%2),
			Seed:            1000 + seed,
		}
		rig, err := testutil.Build(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out, err := scheduler.Run(rig.Model, rig.Requests, scheduler.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := audit.Run(rig.Model, out.Schedule, rig.Requests)
		if !rep.OK() {
			t.Fatalf("seed %d (%v): audit findings %v", seed, p, rep.Findings)
		}
		direct, err := scheduler.RunDirect(rig.Model, rig.Requests)
		if err != nil {
			t.Fatal(err)
		}
		if float64(out.FinalCost) > float64(direct.FinalCost)*1.0001 {
			t.Fatalf("seed %d: scheduler %v lost to direct %v", seed, out.FinalCost, direct.FinalCost)
		}
	}
	_ = vsp.SpacePerCost // keep the public package in the soak build
}
