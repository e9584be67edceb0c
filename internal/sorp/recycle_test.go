package sorp

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"github.com/vodsim/vsp/internal/ivs"
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
