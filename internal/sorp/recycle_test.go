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
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
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

// A fresh evaluation on a frozen prefix is built in the arrays of a file an
// entry retired with, so after every commit the storage in circulation —
// live entries' files and spares — must be disjoint from the files the
// working schedule holds, from the frozen prefixes, and each array must have
// one owner. The run is the shape a rolling-horizon epoch hands to SORP: the
// resolved first half of a window frozen whole, the second half integrated
// on top.
func TestRecycledStorageNeverAliasesWork(t *testing.T) {
	recycled := 0
	for _, seed := range []int64{3, 11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig, err := testutil.NewPaperRig(6, 8, 12, 5*units.GB, pricing.PerGBHour(5), pricing.PerGB(500), seed)
			if err != nil {
				t.Fatal(err)
			}
			window := 6 * simtime.Hour
			all, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.1, Window: window, RequestsPerUser: 3, Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			var halves [2]workload.Set
			for _, r := range all {
				i := min(int(r.Start)*2/int(window), 1)
				halves[i] = append(halves[i], r)
			}
			first, err := Resolve(rig.Model, phase1(t, rig.Model, halves[0]), halves[0].ByVideo(), Options{})
			if err != nil {
				t.Skipf("first half unresolvable: %v", err)
			}
			frozen := first.Schedule.Files
			reqs := halves[1].ByVideo()
			s := schedule.New()
			for _, vid := range all.Videos() {
				fs, err := ivs.ScheduleFile(rig.Model, vid, reqs[vid], ivs.Options{Frozen: frozen[vid]})
				if err != nil {
					t.Fatal(err)
				}
				s.Put(fs)
			}

			retired := make(map[unsafe.Pointer]bool) // delivery arrays seen on the spare lists
			commits := 0
			_, err = resolve(context.Background(), rig.Model, s, reqs, Options{Frozen: frozen},
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
					for vid, fs := range frozen {
						if fs != work.Files[vid] {
							claim(fmt.Sprintf("frozen prefix %d", vid), fs)
						}
					}
					for k, es := range tab.entries {
						for i, e := range es {
							claim(fmt.Sprintf("entry %d of (node %d, video %d)", i, k.node, k.video), e.fs)
							if d, _ := arrays(e.fs); e.fs != nil && retired[d] {
								recycled++
								delete(retired, d)
							}
						}
					}
					for vid, fss := range tab.spare {
						for i, fs := range fss {
							claim(fmt.Sprintf("spare %d of video %d", i, vid), fs)
							if fs.Video != vid || frozen[vid] == nil {
								t.Fatalf("commit %d: spare list of video %d holds a file of video %d (frozen: %v)",
									commits, vid, fs.Video, frozen[vid] != nil)
							}
							d, _ := arrays(fs)
							retired[d] = true
						}
					}
				})
			if err != nil {
				t.Skipf("second half unresolvable: %v", err)
			}
			t.Logf("%d commits, %d evaluations built in recycled storage so far", commits, recycled)
		})
	}
	if recycled == 0 {
		t.Fatal("fixture bug: no live entry was ever built in a retired file's storage")
	}
}

// sharedRig is one resolution case for TestFreeListsAreSharedAcrossLedgers.
type sharedRig struct {
	name string
	rig  *testutil.Rig
	s    *schedule.Schedule
	reqs map[media.VideoID][]workload.Request
	want []byte
}

// resolveJSON resolves the rig's phase-1 schedule and returns the whole
// result as JSON; views, when non-nil, receives the last round's views.
func (r *sharedRig) resolveJSON(t *testing.T, views *[]*occupancy.Ledger) []byte {
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
	res, err := resolve(context.Background(), r.rig.Model, r.s, r.reqs, Options{Workers: 2}, hook)
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

// Overlay views, greedy scratch and probe and delta chunks come from free
// lists the whole process shares, so a view one solve handed back serves
// the next solve on any ledger, of any topology, on any goroutine. Two
// resolutions on topologies of different node counts, run concurrently and
// then interleaved (the large one after the small one and back), must each
// give the bytes the same rig gives resolved alone; and a finished
// resolution must have handed back the views of its last round, which no
// later round released.
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
		r.want = r.resolveJSON(t, &last)
		if len(last) == 0 {
			t.Fatalf("fixture bug: %s resolved without a round of fresh evaluations", r.name)
		}

		// The free lists are LIFO, so the views handed back last come out
		// first: the next OverlayWithout calls must return exactly those.
		ledger := occupancy.FromSchedule(rig.Topo, rig.Catalog, r.s)
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
				got[i] = r.resolveJSON(t, nil)
			}()
		}
		wg.Wait()
		for i, r := range rigs {
			if !bytes.Equal(got[i], r.want) {
				t.Errorf("round %d: %s resolved beside the other differs from it resolved alone", round, r.name)
			}
		}
	}
	for _, i := range []int{0, 1, 0, 1, 1, 0} {
		if r := rigs[i]; !bytes.Equal(r.resolveJSON(t, nil), r.want) {
			t.Errorf("%s resolved after the other differs from it resolved alone", r.name)
		}
	}
}

// The batch path has no prefix to copy, so it keeps nothing back: retired
// files go to the collector, not onto spare lists nobody would read.
func TestNoSparesWithoutFrozenPrefix(t *testing.T) {
	m, _, reqs := tightRig(t)
	_, err := resolve(context.Background(), m, phase1(t, m, reqs), reqs.ByVideo(), Options{},
		func(_ *schedule.Schedule, tab *pairTable) {
			for vid, fss := range tab.spare {
				if len(fss) > 0 {
					t.Errorf("%d spare file(s) kept for video %d in a run without frozen prefixes", len(fss), vid)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}
