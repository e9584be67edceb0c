package optimal

import (
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

func TestOptimalMatchesHandAnalysisOnFig2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	fs, best, err := ScheduleFile(f.Model, 0, f.Requests)
	if err != nil {
		t.Fatalf("ScheduleFile: %v", err)
	}
	// $108.45 is optimal on the worked example (beats the paper's S2).
	if !best.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("optimal cost = %v, want $108.45", best)
	}
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(f.Topo, f.Model.Catalog(), f.Requests); err != nil {
		t.Fatalf("optimal schedule invalid: %v", err)
	}
}

func TestGreedyIsOptimalOnFig2(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	gap, err := Gap(f.Model, 0, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 0 {
		t.Errorf("greedy gap on Fig 2 = %g, want 0", gap)
	}
}

func TestRejectsOversizedInstance(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(workload.Set, MaxRequests+1)
	for i := range reqs {
		reqs[i] = workload.Request{User: 0, Video: 0, Start: simtime.Time(i * 100)}
	}
	if _, _, err := ScheduleFile(f.Model, 0, reqs); err == nil {
		t.Error("expected error above MaxRequests")
	}
}

func TestInputValidation(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScheduleFile(f.Model, 0, workload.Set{{User: 0, Video: 9, Start: 0}}); err == nil {
		t.Error("expected wrong-video error")
	}
	if _, _, err := ScheduleFile(f.Model, 0, workload.Set{{User: 42, Video: 0, Start: 0}}); err == nil {
		t.Error("expected unknown-user error")
	}
	fs, c, err := ScheduleFile(f.Model, 0, nil)
	if err != nil || c != 0 || len(fs.Deliveries) != 0 {
		t.Errorf("empty instance: %v %v %v", fs, c, err)
	}
}

// TestGreedyNeverBeatsOptimal is the central cross-check of both
// implementations: over many random small instances the exhaustive search
// must lower-bound the greedy, and the schedules of both must validate.
func TestGreedyNeverBeatsOptimal(t *testing.T) {
	rig, err := testutil.NewPaperRig(6, 4, 8, 50*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.1), 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	var gaps []float64
	users := rig.Topo.Users()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4) // 2..5 requests
		reqs := make(workload.Set, n)
		for i := range reqs {
			reqs[i] = workload.Request{
				User:  users[rng.Intn(len(users))].ID,
				Video: 0,
				Start: simtime.Time(rng.Intn(8 * 3600)),
			}
		}
		gap, err := Gap(rig.Model, 0, reqs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gap < 0 {
			t.Fatalf("trial %d: negative gap %g", trial, gap)
		}
		gaps = append(gaps, gap)

		opt, _, err := ScheduleFile(rig.Model, 0, reqs)
		if err != nil {
			t.Fatal(err)
		}
		s := schedule.New()
		s.Put(opt)
		if err := s.Validate(rig.Topo, rig.Catalog, reqs); err != nil {
			t.Fatalf("trial %d: optimal schedule invalid: %v", trial, err)
		}
	}
	sum := stats.Summarize(gaps)
	// The paper's empirical claim: the heuristic stays within ~30% of
	// optimal on average. Our greedy is far tighter on these instances.
	if sum.Mean > 0.30 {
		t.Errorf("mean optimality gap %.1f%% exceeds the paper's 30%% bound", 100*sum.Mean)
	}
	t.Logf("optimality gap over %d instances: mean %.2f%%, worst %.2f%%",
		sum.N, 100*sum.Mean, 100*sum.Max)
}

// TestOptimalFindsCrossNeighborhoodPlans checks a case where the optimum
// requires chaining caches across neighborhoods.
func TestOptimalFindsCrossNeighborhoodPlans(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	u23 := f.Topo.UsersAt(f.IS2)
	// Two late requests at IS2 far apart: optimal caches at IS2 from the
	// first stream rather than re-streaming from VW.
	reqs := workload.Set{
		{User: u23[0], Video: 0, Start: 0},
		{User: u23[1], Video: 0, Start: simtime.Time(5 * simtime.Hour)},
	}
	fs, best, err := ScheduleFile(f.Model, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ivs.Direct(f.Model, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if best >= f.Model.FileCost(direct) {
		t.Errorf("optimal %v not cheaper than direct %v", best, f.Model.FileCost(direct))
	}
	if len(fs.Residencies) == 0 {
		t.Error("expected the optimum to cache")
	}
}

func TestGapErrorPropagation(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Gap(f.Model, 0, workload.Set{{User: 99, Video: 0, Start: 0}}); err == nil {
		t.Error("expected error from invalid request")
	}
}
