package ivs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// batchRig is the benchmark's batch_solve workload at trace seed 1: a metro of
// 19 storages of 5 GB with 10 users each, 200 titles, and 1 900 requests
// over 12 hours, drawn from a Zipf skew of 0.271 as the benchmark draws them.
func batchRig(t testing.TB) (*cost.Model, []workload.Request) {
	t.Helper()
	topo := topology.Metro(topology.GenConfig{Storages: 19, UsersPerStorage: 10, Capacity: units.GBf(5)}, 1)
	cat, err := media.Generate(media.GenConfig{Titles: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.SRate(5/(float64(units.GB)*3600)), pricing.PerGB(500))
	m := cost.NewModel(book, routing.NewTable(book), cat)

	users, n, span := topo.NumUsers(), 10*topo.NumUsers(), 12*simtime.Hour
	rng := rand.New(rand.NewSource(1))
	cdf := make([]float64, cat.Len())
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 1-0.271)
		cdf[i] = sum
	}
	videos := make([]media.VideoID, 0, n)
	for title := range cdf {
		for upTo := int(math.Round(cdf[title] / sum * float64(n))); len(videos) < upTo; {
			videos = append(videos, media.VideoID(title))
		}
	}
	rng.Shuffle(n, func(i, j int) { videos[i], videos[j] = videos[j], videos[i] })
	who := rng.Perm(n)
	slot := float64(span) / float64(n)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{User: topology.UserID(who[i] % users), Video: videos[i],
			Start: simtime.Time((float64(i) + rng.Float64()) * slot)}
	}
	return m, reqs
}

// TestCapacityQueriesPerSolve counts the capacity queries the rejective
// greedy asks in one batch_solve solve. Without the refusal memo a solve
// asked 1 093 042, 99.1 % of them refused and 984 388 of those about a copy
// the same run had refused already, and it still does when its runs ask
// every question; with the memo it asks 108 654 and must find the same
// outcome, victim for victim and byte for byte. A count above a fifth of
// 1 093 042 means copies refused for good are being asked about again.
func TestCapacityQueriesPerSolve(t *testing.T) {
	m, reqs := batchRig(t)
	solve := func(reask bool) ([]byte, int64, int64) {
		var out *scheduler.Outcome
		asked, refused := ivs.CountQueries(reask, func() {
			var err error
			if out, err = scheduler.Schedule(context.Background(), m, reqs, scheduler.Config{}); err != nil {
				t.Fatal(err)
			}
		})
		if len(out.Victims) == 0 {
			t.Fatal("fixture bug: the solve resolved no overflow")
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b, asked, refused
	}
	got, asked, refused := solve(false)
	want, before, refusedBefore := solve(true)
	t.Logf("%d capacity queries, %d refused; asking every question, %d and %d", asked, refused, before, refusedBefore)
	if !bytes.Equal(got, want) {
		t.Fatal("the solve's outcome with the refusal memo is not the one asking every question finds")
	}
	const unmemoised = 1_093_042
	if before != unmemoised {
		t.Errorf("the reference solve asked %d capacity queries; a solve without the refusal memo asks %d", before, unmemoised)
	}
	if asked > unmemoised/5 {
		t.Errorf("a solve asked %d capacity queries, over a fifth of the %d it asked without the refusal memo", asked, unmemoised)
	}
}

// BenchmarkScheduleFileRejective is the rejective greedy's candidate loop
// where SORP meets it: the most requested title of batch_solve's rig (153 of
// its 1 900 requests) re-planned on a view of the phase-1 ledger, whose
// storages overflow, under a ban of an overflow one of its copies is caught
// in. All 224 capacity questions a run asks are refused, firmly, where a run
// asking every question would ask 3 078: the run's time is its walk over
// the copies still live. Each run's result is handed back for the next to
// build in, as SORP hands back every evaluation it does not commit.
func BenchmarkScheduleFileRejective(b *testing.B) {
	m, reqs := batchRig(b)
	parts := workload.Set(reqs).ByVideo()
	phase1, err := scheduler.Schedule(context.Background(), m, reqs, scheduler.Config{SkipResolution: true, SkipValidation: true})
	if err != nil {
		b.Fatal(err)
	}
	base := occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), phase1.Schedule)
	var vid media.VideoID
	for v, rs := range parts {
		if len(rs) > len(parts[vid]) || len(rs) == len(parts[vid]) && v < vid {
			vid = v
		}
	}
	var ban []occupancy.Banned
	for _, of := range base.AllOverflows() {
		for _, ref := range base.OverflowSet(nil, of.Node, of.Interval) {
			if ref.Video == vid && ban == nil {
				ban = []occupancy.Banned{{Node: of.Node, Interval: of.Interval}}
			}
		}
	}
	if ban == nil {
		b.Fatalf("fixture bug: no overflow holds a copy of title %d", vid)
	}
	ws := ivs.TakeWorkspace()
	defer ws.Release()
	base.UseWorkspace(ws.Occupancy())
	run := func() {
		view := base.OverlayWithout(vid)
		fs, err := ivs.ScheduleFile(m, vid, parts[vid], ivs.Options{Ledger: view, Banned: ban, Workspace: ws})
		if err != nil {
			b.Fatal(err)
		}
		view.Release()
		ws.Recycle(fs)
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(len(parts[vid])), "requests/op")
}
