package sorp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// reuseCase is one SORP input: an over-committed integrated schedule, the
// reschedulable requests per file, and the options (Seeds or Frozen) it was
// built under. A rolling case also carries what is still to come.
type reuseCase struct {
	m    *cost.Model
	s    *schedule.Schedule
	reqs map[media.VideoID][]workload.Request
	opts Options
	// seen is every request integrated so far, later the slices of the
	// window still to be integrated on top (roll).
	seen  workload.Set
	later []workload.Set
}

// integrate schedules every file seen so far individually on unbounded
// storage, on top of its seeds or frozen prefix.
func (c *reuseCase) integrate(t *testing.T) {
	t.Helper()
	c.s = schedule.New()
	for _, vid := range c.seen.Videos() {
		fs, err := ivs.ScheduleFile(c.m, vid, c.reqs[vid], ivs.Options{Seeds: c.opts.Seeds[vid], Frozen: c.opts.Frozen[vid]})
		if err != nil {
			t.Fatal(err)
		}
		c.s.Put(fs)
	}
}

// roll advances a rolling case by one epoch: the resolved schedule is frozen
// whole and the next slice of the window integrated on top of it — the
// shape a rolling-horizon epoch hands to SORP.
func (c *reuseCase) roll(t *testing.T, resolved *schedule.Schedule) *reuseCase {
	t.Helper()
	next := &reuseCase{m: c.m, reqs: c.later[0].ByVideo(), later: c.later[1:],
		seen: append(c.seen[:len(c.seen):len(c.seen)], c.later[0]...)}
	next.opts.Frozen = resolved.Files
	next.integrate(t)
	return next
}

// buildReuseCase draws a tight random rig. kind 0 is a plain batch; kind 1
// pre-places standing copies of the most requested titles; kind 2 resolves
// the first half of the window and rolls once, so the second half is
// integrated on top of a frozen prefix; kind 3 cuts the window in five and
// returns the first fifth, for the caller to resolve and roll four times in
// succession.
func buildReuseCase(t *testing.T, seed int64, kind int) *reuseCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rig, err := testutil.NewPaperRig(5+rng.Intn(3), 6+rng.Intn(3), 10+rng.Intn(5),
		units.GBf(5+2*rng.Float64()), pricing.PerGBHour(5), pricing.PerGB(500), seed)
	if err != nil {
		t.Fatal(err)
	}
	window := 6 * simtime.Hour
	all, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: window, RequestsPerUser: 3, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &reuseCase{m: rig.Model, reqs: all.ByVideo(), seen: all}
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
	case 2, 3:
		cuts := 2
		if kind == 3 {
			cuts = 5
		}
		parts := make([]workload.Set, cuts)
		for _, r := range all {
			i := min(int(r.Start)*cuts/int(window), cuts-1)
			parts[i] = append(parts[i], r)
		}
		c.reqs, c.seen, c.later = parts[0].ByVideo(), parts[0], parts[1:]
	}
	c.integrate(t)
	if kind == 2 {
		res, err := Resolve(c.m, c.s, c.reqs, Options{})
		if err != nil {
			t.Skipf("first half unresolvable: %v", err)
		}
		c = c.roll(t, res.Schedule)
	}
	return c
}

// run resolves the case, table-free or not, and returns a fingerprint of
// everything it decided: victims with heat and overhead, final cost,
// schedule bytes. A table-free run is the reference: after every commit it
// releases every entry's log and empties the table, so no round finds an
// evaluation to reuse and every pair is rescheduled afresh.
func (c *reuseCase) run(t *testing.T, tableFree bool, workers int) (string, *Result, error) {
	t.Helper()
	var committed func(*schedule.Schedule, *pairTable)
	if tableFree {
		committed = func(_ *schedule.Schedule, tab *pairTable) {
			for _, es := range tab.entries {
				for _, e := range es {
					e.log.Release()
				}
			}
			clear(tab.entries)
		}
	}
	opts := c.opts
	opts.Workers = workers
	res, err := resolve(context.Background(), c.m, c.s, c.reqs, opts, committed)
	if err != nil {
		return "", nil, err
	}
	blob, err := json.Marshal(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Victims go through %v: a free reschedule's heat is +Inf, which JSON
	// cannot carry.
	return fmt.Sprintf("%v %v %s", res.Victims, res.CostAfter, blob), res, nil
}

// matchReference resolves the case table-free and then with the table at
// every worker count, and fails unless the table's runs decide the same,
// their work adds up to the reference's and — given a second iteration to do
// it in — they reuse something. It returns the reference's result, nil when
// the reference cannot resolve the case, and the table's work.
func (c *reuseCase) matchReference(t *testing.T) (*Result, api.Work) {
	t.Helper()
	want, ref, err := c.run(t, true, 1)
	if err != nil {
		t.Logf("unresolvable on the reference: %v", err)
		return nil, api.Work{}
	}
	if ref.Reused != 0 || ref.Rewindowed != 0 {
		t.Fatalf("the reference reused %d evaluations; it must stay table-free", ref.Reused)
	}
	var reusing api.Work
	for _, workers := range []int{0, 1, 4, 8} {
		got, res, err := c.run(t, false, workers)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		work := res.Work
		if got != want {
			t.Errorf("Workers=%d: victims or schedule differ from the table-free reference", workers)
		}
		if work.Reused == 0 && ref.Iterations >= 2 {
			t.Errorf("Workers=%d: nothing reused over %d iterations; the comparison is vacuous", workers, work.Iterations)
		}
		if work.Iterations != ref.Iterations || work.Evaluated+work.Reused != ref.Evaluated || work.Rewindowed > work.Reused {
			t.Errorf("Workers=%d: work %+v does not add up to the reference's %+v", workers, work, ref.Work)
		}
		if workers > 0 && work != reusing {
			t.Errorf("Workers=%d: work %+v, but %+v at Workers=0", workers, work, reusing)
		}
		reusing = work
	}
	t.Logf("reference %+v, reusing %+v", ref.Work, reusing)
	return ref, reusing
}

// TestPropertyReuseMatchesNaiveReference is the exactness property of
// SORP's cross-iteration reuse: on seeded random rigs — plain, with
// pre-placed Seeds, and with Frozen prefixes — a run that reuses an
// evaluation when its box of windows covers the overflow's current one and
// its logged capacity answers replay must select the same victims with the
// same heat and overhead and produce the same schedule bytes as the
// table-free reference, which re-evaluates every pair every iteration, at
// every worker count. The reusing run must actually have reused something
// — and, for each kind of rig, somewhere around a window other than the one
// evaluated under — or the comparison would pass vacuously. Run under -race in CI: replay runs
// between the worker pool's fan-outs on the ledger the workers read.
func TestPropertyReuseMatchesNaiveReference(t *testing.T) {
	resolved, rewindowed := make([]int, 3), make([]int, 3)
	for seed := int64(1); seed <= 30; seed++ {
		kind := int(seed % 3)
		t.Run(fmt.Sprintf("seed=%d/kind=%d", seed, kind), func(t *testing.T) {
			ref, work := buildReuseCase(t, seed, kind).matchReference(t)
			if ref == nil || ref.Iterations < 2 {
				t.Skip("nothing to reuse")
			}
			resolved[kind]++
			if work.Rewindowed > 0 {
				rewindowed[kind]++
			}
		})
	}
	for kind := range resolved {
		if resolved[kind] == 0 || rewindowed[kind] == 0 {
			t.Errorf("kind %d: %d rigs reached the comparison, %d reused around a moved window; pick other seeds",
				kind, resolved[kind], rewindowed[kind])
		}
	}
}

// TestPropertyRollingReuseMatchesNaiveReference is the same property in the
// shape the serving path has: resolve a fifth of the window, freeze the
// result whole, integrate the next fifth on top, four times in succession,
// comparing with the table-free reference after every round — each round's
// prefixes are the previous round's victims' reschedules, extended frozen
// copies included.
func TestPropertyRollingReuseMatchesNaiveReference(t *testing.T) {
	whole, rewindowed := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := buildReuseCase(t, seed, 3)
			for round := 0; ; round++ {
				ref, work := c.matchReference(t)
				if ref == nil {
					t.Skipf("round %d of 5 unresolvable", round)
				}
				if round > 0 && work.Rewindowed > 0 {
					rewindowed++
				}
				if len(c.later) == 0 {
					break
				}
				c = c.roll(t, ref.Schedule)
			}
			whole++
		})
	}
	if whole == 0 || rewindowed == 0 {
		t.Errorf("%d rigs rolled four times and %d rounds on a frozen prefix reused around a moved window; pick other seeds",
			whole, rewindowed)
	}
}

// TestSplitOverflowReuseMatchesNaiveReference constructs the case the window
// box exists for: one storage that fits a single copy, a long copy of title
// 0 under three shorter ones whose tails chain into one overflow, of which
// the middle title is the hottest victim — so the first commit leaves two
// disjoint windows at the same storage inside the one just resolved. Title
// 0's evaluation around the whole window must then answer for the halves its
// box covers and be re-run for the others, and either way the run must
// match the table-free reference.
func TestSplitOverflowReuseMatchesNaiveReference(t *testing.T) {
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 3*units.GB)
	b.Connect(vw, is1)
	b.AttachUsers(is1, 12)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(4, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, 0, testutil.CentsPerMbit(0.2))
	if err := book.SetSRate(is1, pricing.PerGBHour(1)); err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(book, routing.NewTable(book), cat)

	var all workload.Set
	users := topo.UsersAt(is1)
	for vid, hours := range [][]float64{{0, 2, 4, 6, 8, 10}, {2, 3}, {4, 6}, {7, 8}} {
		for _, h := range hours {
			all = append(all, workload.Request{User: users[len(all)], Video: media.VideoID(vid),
				Start: simtime.Time(h * float64(simtime.Hour))})
		}
	}
	c := &reuseCase{m: m, reqs: all.ByVideo(), seen: all}
	c.integrate(t)
	before := occupancy.FromSchedule(topo, cat, c.s).AllOverflows()
	if len(before) != 1 {
		t.Fatalf("fixture bug: %d overflows to start with, want one: %v", len(before), before)
	}

	ref, work := c.matchReference(t)
	if ref == nil {
		t.Fatal("the reference cannot resolve the rig")
	}
	if len(ref.Victims) < 3 || ref.Victims[0].Video != 2 {
		t.Fatalf("fixture bug: victims %v, want the middle title first and two more", ref.Victims)
	}
	// Title 2 is rescheduled once, so its final schedule is the first commit.
	after := c.s.Clone()
	after.Put(ref.Schedule.File(2))
	halves := occupancy.FromSchedule(topo, cat, after).AllOverflows()
	w := before[0].Interval
	if len(halves) != 2 || halves[0].Node != is1 || halves[1].Node != is1 ||
		halves[0].Interval.Start < w.Start || halves[0].Interval.End >= halves[1].Interval.Start || halves[1].Interval.End > w.End {
		t.Fatalf("fixture bug: the first commit left %v, want two disjoint windows inside %v", halves, w)
	}
	if work.Rewindowed == 0 {
		t.Errorf("work %+v: no evaluation around %v answered for one of %v", work, w, halves)
	}
}
