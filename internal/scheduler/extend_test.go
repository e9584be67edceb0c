package scheduler_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// epochClose is one close of a rolling run: the schedule installed before it,
// the one it installed, what the first served and what the close added.
type epochClose struct {
	prev, next    *schedule.Schedule
	served, added workload.Set
	common        map[media.VideoID]int // per video, the deliveries prev and next agree on from the first
	epoch         int
	horizon       simtime.Time
}

// rollingCloses replays the rig's requests in chronological order through a
// horizon.Service, closing an epoch after every size submissions with the
// horizon an hour behind the last start, and returns every close.
func rollingCloses(t *testing.T, r *testutil.Rig, size int) []epochClose {
	t.Helper()
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	svc := horizon.New(r.Model, horizon.Config{})
	var out []epochClose
	for at := 0; at < len(reqs); at += size {
		batch := reqs[at:min(at+size, len(reqs))]
		for _, q := range batch {
			if _, err := svc.Submit(q.Start, q); err != nil {
				t.Fatal(err)
			}
		}
		prev, accepted := svc.Committed(), svc.Accepted()
		planned := len(accepted) - svc.Pending()
		to := simtime.Max(svc.Horizon(), batch[len(batch)-1].Start.Add(-simtime.Hour))
		if _, err := svc.Advance(context.Background(), to); err != nil {
			t.Fatal(err)
		}
		c := epochClose{prev: prev, next: svc.Committed(), served: accepted[:planned], added: accepted[planned:],
			common: map[media.VideoID]int{}, epoch: svc.Epoch(), horizon: to}
		for vid, fs := range c.next.Files {
			if pf := c.prev.File(vid); pf != nil {
				k := 0
				for k < len(pf.Deliveries) && k < len(fs.Deliveries) && sameRequest(pf.Deliveries[k], fs.Deliveries[k]) {
					k++
				}
				c.common[vid] = k
			}
		}
		out = append(out, c)
	}
	return out
}

func sameRequest(a, b schedule.Delivery) bool {
	return a.User == b.User && a.Video == b.Video && a.Start == b.Start
}

// plain reports whether delivery i of fs is supplied by the warehouse and
// feeds no copy: one that can be moved, dropped or re-timed and leave every
// structural invariant standing, so that only coverage can refuse the result.
func plain(fs *schedule.FileSchedule, i int) bool {
	if fs.Deliveries[i].SourceResidency != schedule.NoResidency {
		return false
	}
	for _, c := range fs.Residencies {
		if c.FedBy == i {
			return false
		}
	}
	return true
}

// pick returns the first delivery of a file fs of video v, in video-ID then
// record order, with index in [lo(v), hi(fs)), preferring a plain one.
func pick(s *schedule.Schedule, lo func(media.VideoID) int, hi func(*schedule.FileSchedule) int) (media.VideoID, int, bool) {
	for _, wantPlain := range []bool{true, false} {
		for _, vid := range s.VideoIDs() {
			fs := s.File(vid)
			for i := lo(vid); i < hi(fs); i++ {
				if !wantPlain || plain(fs, i) {
					return vid, i, true
				}
			}
		}
	}
	return 0, 0, false
}

// drop removes delivery i of fs, renumbering the feeds after it.
func drop(fs *schedule.FileSchedule, i int) schedule.Delivery {
	d := fs.Deliveries[i]
	fs.Deliveries = slices.Delete(fs.Deliveries, i, i+1)
	for j := range fs.Residencies {
		if fs.Residencies[j].FedBy > i {
			fs.Residencies[j].FedBy--
		}
	}
	return d
}

// TestExtendIsTheFullCheck is the bar's equivalence property: on seeded
// rolling runs at several epoch sizes, every schedule a close installed, and
// that schedule broken in each way coverage exists to catch, gets the same
// coverage verdict — nil or the same words — from Checker.Extend from the
// schedule before the close as from the full Check against everything the
// close must serve. One Checker extends throughout, as a service's does.
func TestExtendIsTheFullCheck(t *testing.T) {
	type corruption struct {
		name string
		// apply breaks n, a copy of c.next, and reports whether it found
		// something to break.
		apply func(c epochClose, n *schedule.Schedule) bool
	}
	var r *testutil.Rig // the rig of the run in progress
	// otherUser returns d for another user local to the same storage, if
	// there is one: a retarget every structural check lets through.
	otherUser := func(d schedule.Delivery) (schedule.Delivery, bool) {
		topo := r.Topo
		for u := 0; u < topo.NumUsers(); u++ {
			if id := topology.UserID(u); id != d.User && topo.User(id).Local == topo.User(d.User).Local {
				d.User = id
				return d, true
			}
		}
		return d, false
	}
	first := func(media.VideoID) int { return 0 }
	prefixEnd := func(c epochClose) func(*schedule.FileSchedule) int {
		return func(fs *schedule.FileSchedule) int { return c.common[fs.Video] }
	}
	inTail := func(c epochClose) func(media.VideoID) int { return func(v media.VideoID) int { return c.common[v] } }
	end := func(fs *schedule.FileSchedule) int { return len(fs.Deliveries) }
	// reroute has delivery i of fs draw from residency j, or from the
	// warehouse for NoResidency, along the cheapest route.
	reroute := func(fs *schedule.FileSchedule, i, j int) bool {
		d := &fs.Deliveries[i]
		src := r.Topo.Warehouse()
		if j != schedule.NoResidency {
			src = fs.Residencies[j].Loc
		}
		route, err := r.Model.Table().Route(src, r.Topo.User(d.User).Local)
		if err != nil {
			return false
		}
		d.Route, d.SourceResidency = route, j
		return true
	}
	// grow extends a copy chosen by which, in video-ID then index order, to
	// the latest plain delivery of its file that starts after it, which it
	// then supplies: coverage and structure stand, and the copy holds its
	// space longer.
	grow := func(n *schedule.Schedule, which func(vid media.VideoID, j int, c schedule.Residency) bool) bool {
		for _, vid := range n.VideoIDs() {
			fs := n.File(vid)
			for j, c := range fs.Residencies {
				if c.FedBy == schedule.PrePlacedFeed || !which(vid, j, c) {
					continue
				}
				for i := len(fs.Deliveries) - 1; i >= 0; i-- {
					if d := fs.Deliveries[i]; d.Start > c.LastService && plain(fs, i) && reroute(fs, i, j) {
						fs.Residencies[j].LastService = d.Start
						return true
					}
				}
			}
		}
		return false
	}

	corruptions := []corruption{
		{"a prefix record's user changed", func(c epochClose, n *schedule.Schedule) bool {
			for _, vid := range n.VideoIDs() {
				fs := n.File(vid)
				for i := 0; i < c.common[vid]; i++ {
					if d, ok := otherUser(fs.Deliveries[i]); ok {
						fs.Deliveries[i] = d
						return true
					}
				}
			}
			return false
		}},
		{"a prefix record's start changed", func(c epochClose, n *schedule.Schedule) bool {
			vid, i, ok := pick(n, first, prefixEnd(c))
			if ok {
				n.File(vid).Deliveries[i].Start++
			}
			return ok
		}},
		{"a tail delivery dropped", func(c epochClose, n *schedule.Schedule) bool {
			vid, i, ok := pick(n, inTail(c), end)
			if ok {
				drop(n.File(vid), i)
			}
			return ok
		}},
		{"a tail delivery duplicated", func(c epochClose, n *schedule.Schedule) bool {
			vid, i, ok := pick(n, inTail(c), end)
			if ok {
				fs := n.File(vid)
				fs.Deliveries = append(fs.Deliveries, fs.Deliveries[i])
			}
			return ok
		}},
		{"a tail delivery retargeted", func(c epochClose, n *schedule.Schedule) bool {
			for _, vid := range n.VideoIDs() {
				fs := n.File(vid)
				for i := c.common[vid]; i < len(fs.Deliveries); i++ {
					if d, ok := otherUser(fs.Deliveries[i]); ok {
						fs.Deliveries[i] = d
						return true
					}
				}
			}
			return false
		}},
		{"a pending request left unserved", func(c epochClose, n *schedule.Schedule) bool {
			for _, q := range c.added {
				fs := n.File(q.Video)
				for i := len(fs.Deliveries) - 1; i >= 0; i-- {
					if d := fs.Deliveries[i]; d.User == q.User && d.Start == q.Start && plain(fs, i) {
						drop(fs, i)
						return true
					}
				}
			}
			return false
		}},
		{"a delivery for an unaccepted request added", func(c epochClose, n *schedule.Schedule) bool {
			vid, i, ok := pick(n, first, end)
			if ok {
				fs := n.File(vid)
				d := fs.Deliveries[i]
				d.Start = c.horizon.Add(365 * 24 * simtime.Hour)
				fs.Deliveries = append(fs.Deliveries, d)
			}
			return ok
		}},
		{"a whole file dropped", func(c epochClose, n *schedule.Schedule) bool {
			for _, vid := range n.VideoIDs() {
				if len(n.File(vid).Deliveries) > 0 {
					delete(n.Files, vid)
					return true
				}
			}
			return false
		}},
		{"a whole file added", func(c epochClose, n *schedule.Schedule) bool {
			vid, i, ok := pick(n, first, end)
			if !ok || !plain(n.File(vid), i) {
				return false
			}
			for v := media.VideoID(0); int(v) < r.Catalog.Len(); v++ {
				if n.File(v) == nil {
					d := n.File(vid).Deliveries[i]
					d.Video = v
					n.Put(&schedule.FileSchedule{Video: v, Deliveries: []schedule.Delivery{d}})
					return true
				}
			}
			return false
		}},
		{"a delivery moved to another file", func(c epochClose, n *schedule.Schedule) bool {
			vids := n.VideoIDs()
			if len(vids) < 2 {
				return false
			}
			for _, vid := range vids {
				fs := n.File(vid)
				for i := range fs.Deliveries {
					if plain(fs, i) {
						d := drop(fs, i)
						to := vids[0]
						if to == vid {
							to = vids[1]
						}
						d.Video = to
						n.File(to).Deliveries = append(n.File(to).Deliveries, d)
						return true
					}
				}
			}
			return false
		}},
	}
	// The capacity classes keep structure and coverage and move space: the
	// full check may pass one, and one marked overflow must over-commit a
	// storage at some close.
	capacityClasses := []struct {
		corruption
		overflow bool
	}{
		{corruption{"a tail residency grown past capacity", func(c epochClose, n *schedule.Schedule) bool {
			return grow(n, func(vid media.VideoID, j int, res schedule.Residency) bool {
				pf := c.prev.File(vid)
				return pf == nil || j >= len(pf.Residencies) || pf.Residencies[j] != res
			})
		}}, true},
		{corruption{"a frozen residency extended into an overflow", func(c epochClose, n *schedule.Schedule) bool {
			return grow(n, func(_ media.VideoID, _ int, res schedule.Residency) bool { return res.Load < c.horizon })
		}}, true},
		{corruption{"a residency moved to another storage", func(c epochClose, n *schedule.Schedule) bool {
			for _, vid := range n.VideoIDs() {
				fs := n.File(vid)
				for j, res := range fs.Residencies {
					if res.FedBy == schedule.PrePlacedFeed {
						continue
					}
					for _, m := range fs.Deliveries[res.FedBy].Route {
						if m == res.Loc || r.Topo.Node(m).Kind != topology.KindStorage {
							continue
						}
						fs.Residencies[j].Loc = m
						for i := range fs.Deliveries {
							if fs.Deliveries[i].SourceResidency == j && !reroute(fs, i, j) {
								return false
							}
						}
						return true
					}
				}
			}
			return false
		}}, false},
		{corruption{"a residency dropped", func(c epochClose, n *schedule.Schedule) bool {
			for _, vid := range n.VideoIDs() {
				fs := n.File(vid)
				if len(fs.Residencies) == 0 {
					continue
				}
				j := len(fs.Residencies) / 2
				for i := range fs.Deliveries {
					switch sr := fs.Deliveries[i].SourceResidency; {
					case sr == j:
						if !reroute(fs, i, schedule.NoResidency) {
							return false
						}
					case sr > j:
						fs.Deliveries[i].SourceResidency--
					}
				}
				fs.Residencies = slices.Delete(fs.Residencies, j, j+1)
				return true
			}
			return false
		}}, false},
	}
	coverageClasses := len(corruptions)
	for _, cc := range capacityClasses {
		corruptions = append(corruptions, cc.corruption)
	}

	// applied counts, per corruption, the broken schedules that passed the
	// structural half, so that the coverage half judged them, and overflowed
	// those the capacity half refused.
	applied := make([]int, len(corruptions))
	overflowed := make([]int, len(corruptions))
	for _, seed := range []int64{1, 2} {
		var err error
		r, err = testutil.Build(testutil.Params{
			Storages:        4,
			UsersPerStorage: 3,
			RequestsPerUser: 5,
			Titles:          30,
			CapacityGB:      2, // tight: SORP runs, frozen copies are extended
			Seed:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 25} {
			var kept scheduler.Checker
			// holds checks that the kept ledger is a fresh build of s, the
			// schedule it must hold after the call just made.
			holds := func(at string, s *schedule.Schedule) {
				t.Helper()
				if d := occupancy.Diff(r.Topo, kept.Ledger(), occupancy.FromSchedule(r.Topo, r.Catalog, s)); d != "" {
					t.Fatalf("%s: the kept ledger differs from a fresh build of the schedule it holds: %s", at, d)
				}
			}
			for _, c := range rollingCloses(t, r, size) {
				at := fmt.Sprintf("seed %d, epochs of %d, close %d", seed, size, c.epoch)
				all := append(append(workload.Set(nil), c.served...), c.added...)
				if v := kept.Extend(r.Topo, r.Catalog, c.prev, c.next, c.added); v.Err() != nil {
					t.Fatalf("%s: the installed extension fails the bar: %v", at, v.Err())
				}
				holds(at, c.next)
				held := c.next
				if v := scheduler.Check(r.Topo, r.Catalog, c.next, all); v.Err() != nil {
					t.Fatalf("%s: the installed schedule fails the full check: %v", at, v.Err())
				}
				for k, cr := range corruptions {
					n := c.next.Clone()
					if !cr.apply(c, n) {
						continue
					}
					ext := kept.Extend(r.Topo, r.Catalog, c.prev, n, c.added)
					full := scheduler.Check(r.Topo, r.Catalog, n, all)
					if full.Invalid == nil && k < coverageClasses {
						t.Fatalf("%s: %s: the full check let it pass", at, cr.name)
					}
					if !full.Malformed {
						applied[k]++
					}
					if len(full.Overflows) > 0 {
						overflowed[k]++
					}
					if fmt.Sprint(ext.Err()) != fmt.Sprint(full.Err()) || ext.Malformed != full.Malformed ||
						!reflect.DeepEqual(ext.Overflows, full.Overflows) {
						t.Fatalf("%s: %s: the extension says %v (malformed=%v, %d overflows), the full check %v (malformed=%v, %d overflows)",
							at, cr.name, ext.Err(), ext.Malformed, len(ext.Overflows), full.Err(), full.Malformed, len(full.Overflows))
					}
					switch {
					case full.Malformed:
					case full.Err() == nil:
						held = n
					default:
						held = c.prev
					}
					holds(at+": "+cr.name, held)
				}
			}
		}
	}
	for k, cr := range corruptions {
		t.Logf("%s: %d judged past the structural half, %d over-committing", cr.name, applied[k], overflowed[k])
		if applied[k] == 0 {
			t.Errorf("%s: no close had anything to break without breaking its structure", cr.name)
		}
		if k >= coverageClasses && capacityClasses[k-coverageClasses].overflow && overflowed[k] == 0 {
			t.Errorf("%s: no close over-committed a storage", cr.name)
		}
	}
}

// ValidateExtension from the schedule a close replaced is ValidateStructure:
// on seeded rolling runs at several epoch sizes, every installed schedule
// with one of its records changed at random — a field of a delivery or a
// residency, or a record dropped or repeated — gets the same verdict, nil or
// the same words, from both.
func TestValidateExtensionIsTheWholeCheck(t *testing.T) {
	var refused, passed int
	for _, seed := range []int64{1, 2} {
		r, err := testutil.Build(testutil.Params{Storages: 4, UsersPerStorage: 3, RequestsPerUser: 5, Titles: 30,
			CapacityGB: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := r.Topo.NumNodes()
		for _, size := range []int{1, 7, 25} {
			for _, c := range rollingCloses(t, r, size) {
				vids := c.next.VideoIDs()
				for trial := 0; trial < 40; trial++ {
					n := c.next.Clone()
					fs := n.File(vids[rng.Intn(len(vids))])
					nd, nr := len(fs.Deliveries), len(fs.Residencies)
					switch op := rng.Intn(8); {
					case op == 0 && nd > 0:
						fs.Deliveries[rng.Intn(nd)].Start += simtime.Time(rng.Intn(3) - 1)
					case op == 1 && nd > 0:
						fs.Deliveries[rng.Intn(nd)].SourceResidency += rng.Intn(3) - 1
					case op == 2 && nd > 0:
						d := &fs.Deliveries[rng.Intn(nd)]
						d.Route = append(d.Route.Clone(), topology.NodeID(rng.Intn(nodes)))
					case op == 3 && nr > 0:
						fs.Residencies[rng.Intn(nr)].Loc = topology.NodeID(rng.Intn(nodes))
					case op == 4 && nr > 0:
						fs.Residencies[rng.Intn(nr)].LastService += simtime.Time(rng.Intn(3) - 1)
					case op == 5 && nr > 0:
						fs.Residencies[rng.Intn(nr)].FedBy += rng.Intn(3) - 1
					case op == 6 && nr > 0:
						j := rng.Intn(nr)
						fs.Residencies = slices.Delete(fs.Residencies, j, j+1)
					case nd > 0:
						i := rng.Intn(nd)
						fs.Deliveries = slices.Insert(fs.Deliveries, rng.Intn(nd+1), fs.Deliveries[i])
					}
					whole := n.ValidateStructure(r.Topo, r.Catalog)
					if ext := n.ValidateExtension(r.Topo, r.Catalog, c.prev); fmt.Sprint(ext) != fmt.Sprint(whole) {
						t.Fatalf("seed %d, epochs of %d, close %d: the extension says %v, the whole check %v",
							seed, size, c.epoch, ext, whole)
					}
					if whole != nil {
						refused++
					} else {
						passed++
					}
				}
			}
		}
	}
	t.Logf("%d changed schedules refused, %d passed", refused, passed)
	if refused == 0 || passed == 0 {
		t.Fatal("the changes were all refused or all passed: the test does not tell the forms apart")
	}
}
