package scheduler

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// TestScheduleCancelledContext: an already-cancelled context must abort the
// run promptly (well under the time the full run would take on a sizeable
// workload) and surface context.Canceled.
func TestScheduleCancelledContext(t *testing.T) {
	rig, err := testutil.NewPaperRig(9, 8, 60, 5*units.GB, pricing.PerGBHour(3), pricing.PerGB(500), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: 8 * simtime.Hour, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	out, err := Schedule(ctx, rig.Model, reqs, Config{})
	if err == nil {
		t.Fatal("cancelled context produced a schedule")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if out != nil {
		t.Error("cancelled run returned a partial outcome")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled run took %v, want prompt abort", elapsed)
	}
}

// TestScheduleBackgroundMatchesRun: Schedule with a background context is
// exactly Run.
func TestScheduleBackgroundMatchesRun(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(f.Model, f.Requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(context.Background(), f.Model, f.Requests, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCost != b.FinalCost || a.Phase1Cost != b.Phase1Cost {
		t.Errorf("Run and Schedule diverge: %+v vs %+v", a, b)
	}
}
