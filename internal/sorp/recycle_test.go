package sorp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// arrays returns the backing arrays of a file's two record slices (nil for
// an array of no capacity, which is nobody's).
func arrays(fs *schedule.FileSchedule) (d, r unsafe.Pointer) {
	if cap(fs.Deliveries) > 0 {
		d = unsafe.Pointer(unsafe.SliceData(fs.Deliveries))
	}
	if cap(fs.Residencies) > 0 {
		r = unsafe.Pointer(unsafe.SliceData(fs.Residencies))
	}
	return d, r
}

// fileTracker follows the files of table entries from commit to commit, and
// from one resolution to the next: a file that was an entry's and is neither
// an entry's nor the working schedule's any more was retired, and a retired
// file that is an entry's again holds a later evaluation, built in its
// storage.
type fileTracker struct {
	live     map[*schedule.FileSchedule]bool
	retired  map[*schedule.FileSchedule]bool
	recycled int
}

func newFileTracker() *fileTracker {
	return &fileTracker{retired: make(map[*schedule.FileSchedule]bool)}
}

func (ft *fileTracker) observe(work *schedule.Schedule, tab *pairTable) {
	now := make(map[*schedule.FileSchedule]bool)
	for _, es := range tab.entries {
		for _, e := range es {
			if e.fs == nil {
				continue
			}
			now[e.fs] = true
			if ft.retired[e.fs] {
				ft.recycled++
				delete(ft.retired, e.fs)
			}
		}
	}
	for fs := range ft.live {
		if !now[fs] && work.Files[fs.Video] != fs {
			ft.retired[fs] = true
		}
	}
	ft.live = now
}

// end retires what the table held at the last commit: the run's end hands
// back every file still in it.
func (ft *fileTracker) end(work *schedule.Schedule) {
	for fs := range ft.live {
		if work.Files[fs.Video] != fs {
			ft.retired[fs] = true
		}
	}
	ft.live = nil
}

// resolveTracked runs the case and checks, after every commit, that the
// storage in circulation — live entries' files — is disjoint from the files
// the working schedule holds and from the frozen prefixes, and that each
// array has one owner. It returns nil when the case cannot be resolved.
func (c *reuseCase) resolveTracked(t *testing.T, ft *fileTracker) *Result {
	t.Helper()
	commits := 0
	res, err := resolve(context.Background(), c.m, c.s, c.reqs, c.opts,
		func(work *schedule.Schedule, tab *pairTable) {
			commits++
			owner := make(map[unsafe.Pointer]string)
			claim := func(who string, fs *schedule.FileSchedule) {
				if fs == nil {
					return
				}
				d, r := arrays(fs)
				for _, p := range []unsafe.Pointer{d, r} {
					if p == nil {
						continue
					}
					if prev, taken := owner[p]; taken {
						t.Fatalf("commit %d: %s shares a backing array with %s", commits, who, prev)
					}
					owner[p] = who
				}
			}
			for vid, fs := range work.Files {
				claim(fmt.Sprintf("work's file %d", vid), fs)
			}
			for vid, fs := range c.opts.Frozen {
				if fs != work.Files[vid] {
					claim(fmt.Sprintf("frozen prefix %d", vid), fs)
				}
			}
			for k, es := range tab.entries {
				for i, e := range es {
					claim(fmt.Sprintf("entry %d of (node %d, video %d)", i, k.node, k.video), e.fs)
				}
			}
			ft.observe(work, tab)
		})
	if err != nil {
		t.Logf("unresolvable: %v", err)
		return nil
	}
	ft.end(res.Schedule)
	return res
}

// A fresh evaluation is built in the storage of a file the table retired, in
// the same resolution or an earlier one, so the storage in circulation must
// never reach a file the working schedule holds: checked after every commit
// of a batch and of a rolling resolution, and across two resolutions in one
// process — the first Result must keep its bytes while the second builds its
// evaluations in what the first handed back.
func TestRecycledStorageNeverAliasesWork(t *testing.T) {
	recycled := make(map[string]int)
	for _, seed := range []int64{3, 11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for name, kind := range map[string]int{"batch": 0, "rolling": 2} {
				t.Run(name, func(t *testing.T) {
					c := buildReuseCase(t, seed, kind)
					ft := newFileTracker()
					first := c.resolveTracked(t, ft)
					if first == nil {
						t.Skip("unresolvable")
					}
					want := mustJSON(t, first)
					second := c.resolveTracked(t, ft)
					if second == nil {
						t.Fatal("resolved once, then not")
					}
					if !bytes.Equal(mustJSON(t, second), want) {
						t.Error("the second resolution differs from the first")
					}
					if !bytes.Equal(mustJSON(t, first), want) {
						t.Error("the first Result changed while the second resolution ran")
					}
					recycled[name] += ft.recycled
					t.Logf("%d evaluations built in retired files", ft.recycled)
				})
			}
		})
	}
	for _, name := range []string{"batch", "rolling"} {
		if recycled[name] == 0 {
			t.Errorf("no %s evaluation was ever built in a retired file's storage", name)
		}
	}
}

// A batch has no frozen prefix to copy, yet its evaluations are thrown away
// as often: later fresh evaluations of one resolution are built in the files
// earlier ones retired.
func TestBatchEvaluationsReuseRetiredFiles(t *testing.T) {
	r, err := testutil.Build(testutil.Params{Storages: 10, UsersPerStorage: 5, RequestsPerUser: 10, Titles: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := &reuseCase{m: r.Model, s: phase1(t, r.Model, r.Requests), reqs: r.Requests.ByVideo()}
	ft := newFileTracker()
	if c.resolveTracked(t, ft) == nil {
		t.Fatal("fixture bug: the rig does not resolve")
	}
	if ft.recycled == 0 {
		t.Error("no fresh evaluation was built in a retired file")
	}
}

// The working schedule starts as a copy of the input's file map, not of its
// files: the input must encode the same after the resolution, the Result
// must share every file no victim replaced, and hold its own for every
// victim's.
func TestResolveLeavesItsInputAlone(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for name, kind := range map[string]int{"batch": 0, "rolling": 2} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				c := buildReuseCase(t, seed, kind)
				before := mustJSON(t, c.s)
				res := c.resolveTracked(t, newFileTracker())
				if res == nil {
					t.Skip("unresolvable")
				}
				if !bytes.Equal(mustJSON(t, c.s), before) {
					t.Error("the input schedule changed")
				}
				victim := make(map[media.VideoID]bool)
				for _, v := range res.Victims {
					victim[v.Video] = true
				}
				if len(victim) == 0 {
					t.Fatal("fixture bug: no victim")
				}
				for vid, fs := range c.s.Files {
					if shared := res.Schedule.Files[vid] == fs; shared == victim[vid] {
						t.Errorf("video %d: shared with the input %v, a victim %v", vid, shared, victim[vid])
					}
				}
			})
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// sharedRig is one resolution case for TestFreeListsAreSharedAcrossLedgers.
type sharedRig struct {
	name string
	rig  *testutil.Rig
	s    *schedule.Schedule
	reqs map[media.VideoID][]workload.Request
	want []byte
}

// resolveJSON solves the rig on ws (nil: one taken per call), phase 1 and
// then the resolution, and returns the whole result as JSON; views, when
// non-nil, receives the last round's views.
func (r *sharedRig) resolveJSON(t *testing.T, ws *ivs.Workspace, views *[]*occupancy.Ledger) []byte {
	s := schedule.New()
	for _, vid := range r.rig.Requests.Videos() {
		fs, err := ivs.ScheduleFile(r.rig.Model, vid, r.reqs[vid], ivs.Options{Workspace: ws})
		if err != nil {
			t.Errorf("%s: phase 1: %v", r.name, err)
			return nil
		}
		s.Put(fs)
	}
	var hook func(*schedule.Schedule, *pairTable)
	if views != nil {
		hook = func(_ *schedule.Schedule, tab *pairTable) {
			*views = (*views)[:0]
			for _, j := range tab.jobs {
				if j.tmp != nil {
					*views = append(*views, j.tmp)
				}
			}
		}
	}
	res, err := resolve(context.Background(), r.rig.Model, s, r.reqs, Options{Workers: 2, Workspace: ws}, hook)
	if err != nil {
		t.Errorf("%s: %v", r.name, err)
		return nil
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Errorf("%s: %v", r.name, err)
	}
	return blob
}

// Overlay views, greedy scratch, dead files and probe and delta chunks come
// from a workspace whose lists serve any ledger, of any topology: a view one
// solve handed back serves the next solve on another rig. Each rig is first
// solved (phase 1, then the resolution) alone on a fresh workspace. Run concurrently, each on a
// workspace taken for the call, and then interleaved on one workspace (the
// large one after the small one and back), the two must each give the bytes
// of the fresh run; and a finished resolution must have handed back the
// views of its last round, which no later round released.
func TestFreeListsAreSharedAcrossLedgers(t *testing.T) {
	rigs := []*sharedRig{{name: "6 storages"}, {name: "14 storages"}}
	for i, storages := range []int{6, 14} {
		r := rigs[i]
		rig, err := testutil.Build(testutil.Params{Storages: storages, UsersPerStorage: 3, RequestsPerUser: 6, Titles: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		r.rig, r.s, r.reqs = rig, phase1(t, rig.Model, rig.Requests), rig.Requests.ByVideo()
		var last []*occupancy.Ledger
		ws := new(ivs.Workspace)
		r.want = r.resolveJSON(t, ws, &last)
		if len(last) == 0 {
			t.Fatalf("fixture bug: %s resolved without a round of fresh evaluations", r.name)
		}

		// The free lists are LIFO, so the views handed back last come out
		// first: the next OverlayWithout calls must return exactly those.
		ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, r.s)
		ledger.UseWorkspace(ws.Occupancy())
		handed := make(map[*occupancy.Ledger]bool, len(last))
		for _, v := range last {
			handed[v] = true
		}
		var taken []*occupancy.Ledger
		for range last {
			v := ledger.OverlayWithout(0)
			taken = append(taken, v)
			if !handed[v] {
				t.Errorf("%s: the free list's top holds a view the last round did not hand back", r.name)
			}
			delete(handed, v)
		}
		for _, v := range taken {
			v.Release()
		}
	}
	if rigs[0].rig.Topo.NumNodes() == rigs[1].rig.Topo.NumNodes() {
		t.Fatal("fixture bug: the two rigs have the same node count")
	}

	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		got := make([][]byte, len(rigs))
		for i, r := range rigs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = r.resolveJSON(t, nil, nil)
			}()
		}
		wg.Wait()
		for i, r := range rigs {
			if !bytes.Equal(got[i], r.want) {
				t.Errorf("round %d: %s resolved beside the other differs from it resolved alone", round, r.name)
			}
		}
	}
	ws := new(ivs.Workspace)
	for _, i := range []int{0, 1, 0, 1, 1, 0} {
		if r := rigs[i]; !bytes.Equal(r.resolveJSON(t, ws, nil), r.want) {
			t.Errorf("%s resolved on a workspace the other used differs from it resolved on a fresh one", r.name)
		}
	}
}
