package occupancy_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// reuseCase is one SORP input: an over-committed integrated schedule, the
// reschedulable requests per file, and the options (Seeds or Frozen) it was
// built under.
type reuseCase struct {
	m    *cost.Model
	s    *schedule.Schedule
	reqs map[media.VideoID][]workload.Request
	opts sorp.Options
}

// phase1 schedules every file individually on unbounded storage, on top of
// its seeds or frozen prefix.
func phase1(t *testing.T, c *reuseCase, videos []media.VideoID) {
	t.Helper()
	c.s = schedule.New()
	for _, vid := range videos {
		fs, err := ivs.ScheduleFile(c.m, vid, c.reqs[vid], ivs.Options{Seeds: c.opts.Seeds[vid], Frozen: c.opts.Frozen[vid]})
		if err != nil {
			t.Fatal(err)
		}
		c.s.Put(fs)
	}
}

// buildReuseCase draws a tight random rig. kind 0 is a plain batch; kind 1
// pre-places standing copies of the most requested titles; kind 2 resolves
// the first half of the window, freezes the result whole, and integrates
// the second half on top of it — the shape a rolling-horizon epoch hands to
// SORP.
func buildReuseCase(t *testing.T, seed int64, kind int) *reuseCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rig, err := testutil.NewPaperRig(5+rng.Intn(3), 6+rng.Intn(3), 10+rng.Intn(5),
		units.GBf(5+2*rng.Float64()), testutil.PerGBHour(5), pricing.PerGB(500), seed)
	if err != nil {
		t.Fatal(err)
	}
	window := 6 * simtime.Hour
	all, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: window, RequestsPerUser: 3, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &reuseCase{m: rig.Model, reqs: all.ByVideo()}
	switch kind {
	case 1:
		c.opts.Seeds = make(map[media.VideoID][]schedule.Residency)
		storages := rig.Topo.Storages()
		for _, vid := range all.Videos()[:2] {
			c.opts.Seeds[vid] = []schedule.Residency{{
				Video: vid, Loc: storages[rng.Intn(len(storages))], Src: rig.Topo.Warehouse(),
				Load: 0, LastService: simtime.Time(window), FedBy: schedule.PrePlacedFeed,
			}}
		}
	case 2:
		half := simtime.Time(window / 2)
		var early, late workload.Set
		for _, r := range all {
			if r.Start < half {
				early = append(early, r)
			} else {
				late = append(late, r)
			}
		}
		first := &reuseCase{m: rig.Model, reqs: early.ByVideo()}
		phase1(t, first, early.Videos())
		res, err := sorp.Resolve(first.m, first.s, first.reqs, sorp.Options{})
		if err != nil {
			t.Skipf("first half unresolvable: %v", err)
		}
		c.opts.Frozen = res.Schedule.Files
		c.reqs = late.ByVideo()
		all = append(early, late...)
	}
	phase1(t, c, all.Videos())
	return c
}

// TestPropertyReuseMatchesNaiveReference is the exactness property of
// SORP's cross-iteration reuse: on seeded random rigs — plain, with
// pre-placed Seeds, and with Frozen prefixes — the indexed ledger, which
// reuses evaluations whose logged capacity answers replay, must select the
// same victims with the same heat and overhead and produce the same
// schedule bytes as the naive reference ledger, which records nothing and
// so re-evaluates every pair every iteration, at every worker count. The
// indexed side must actually have reused something, or the comparison
// would pass vacuously. Run under -race in CI: replay runs between the
// worker pool's fan-outs on the ledger the workers read.
func TestPropertyReuseMatchesNaiveReference(t *testing.T) {
	defer occupancy.SetNaiveForTesting(false)
	resolved := make([]int, 3)
	for seed := int64(1); seed <= 9; seed++ {
		kind := int(seed % 3)
		t.Run(fmt.Sprintf("seed=%d/kind=%d", seed, kind), func(t *testing.T) {
			c := buildReuseCase(t, seed, kind)
			run := func(naive bool, workers int) (string, sorp.Work, error) {
				occupancy.SetNaiveForTesting(naive)
				defer occupancy.SetNaiveForTesting(false)
				opts := c.opts
				opts.Workers = workers
				res, err := sorp.Resolve(c.m, c.s, c.reqs, opts)
				if err != nil {
					return "", sorp.Work{}, err
				}
				blob, err := json.Marshal(res.Schedule)
				if err != nil {
					t.Fatal(err)
				}
				// Victims go through %v: a free reschedule's heat is +Inf,
				// which JSON cannot carry.
				return fmt.Sprintf("%v %v %s", res.Victims, res.CostAfter, blob), res.Work, nil
			}
			want, ref, err := run(true, 1)
			if err != nil {
				t.Skipf("unresolvable on the reference: %v", err)
			}
			if ref.Reused != 0 {
				t.Fatalf("the naive reference reused %d evaluations; it must stay table-free", ref.Reused)
			}
			if ref.Iterations < 2 {
				t.Skipf("only %d iterations: nothing to reuse", ref.Iterations)
			}
			for _, workers := range []int{0, 1, 4, 8} {
				got, work, err := run(false, workers)
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				if got != want {
					t.Errorf("Workers=%d: victims or schedule differ from the naive, table-free reference", workers)
				}
				if work.Reused == 0 {
					t.Errorf("Workers=%d: nothing reused over %d iterations; the comparison is vacuous", workers, work.Iterations)
				}
				if work.Iterations != ref.Iterations || work.Evaluated+work.Reused != ref.Evaluated {
					t.Errorf("Workers=%d: work %+v does not add up to the reference's %+v", workers, work, ref)
				}
			}
			t.Logf("reference %+v", ref)
			resolved[kind]++
		})
	}
	for kind, n := range resolved {
		if n == 0 {
			t.Errorf("no rig of kind %d reached the comparison; pick other seeds", kind)
		}
	}
}
