package occupancy_test

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// tieRig is a warehouse and three storages in a line, with six titles of
// uneven sizes and three playback lengths, so that sums of their records
// round differently in different orders and decays end together.
func tieRig(t testing.TB) (*topology.Topology, *media.Catalog) {
	t.Helper()
	b := topology.NewBuilder()
	prev := b.Warehouse("VW")
	for _, name := range []string{"IS1", "IS2", "IS3"} {
		is := b.Storage(name, 2900)
		b.Connect(prev, is)
		b.AttachUsers(is, 1)
		prev = is
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var videos []media.Video
	for i, size := range []units.Bytes{997, 1013, 1999, 1237, 771, 1409} {
		playback := []simtime.Duration{60, 90, 100}[i%3] * simtime.Second
		videos = append(videos, media.Video{ID: media.VideoID(i), Size: size, Playback: playback,
			Rate: units.BytesPerSec(float64(size)/playback.Seconds()) * 2})
	}
	cat, err := media.NewCatalog(videos)
	if err != nil {
		t.Fatal(err)
	}
	return topo, cat
}

// mutate returns a copy of s, which it leaves as it is, with a few of its
// residencies extended, moved, dropped or added, and a file dropped or added
// now and then. Every time is on a 10 s grid, so that records at one node
// often share a time. A ledger reads nothing of a schedule but residencies.
func mutate(rng *rand.Rand, topo *topology.Topology, cat *media.Catalog, s *schedule.Schedule) *schedule.Schedule {
	out := schedule.New()
	if s != nil {
		for vid, fs := range s.Files {
			out.Put(&schedule.FileSchedule{Video: vid, Residencies: slices.Clone(fs.Residencies)})
		}
	}
	storages := topo.Storages()
	grid := func(n int) simtime.Time { return simtime.Time(10 * rng.Intn(n)) }
	for range 1 + rng.Intn(4) {
		vid := media.VideoID(rng.Intn(cat.Len()))
		fs := out.File(vid)
		if fs == nil {
			fs = &schedule.FileSchedule{Video: vid}
			out.Put(fs)
		}
		rs := fs.Residencies
		switch op := rng.Intn(6); {
		case op == 0 && len(rs) > 0: // extended
			rs[rng.Intn(len(rs))].LastService += grid(8)
		case op == 1 && len(rs) > 0: // moved
			rs[rng.Intn(len(rs))].Loc = storages[rng.Intn(len(storages))]
		case op == 2 && len(rs) > 0: // dropped, the later ones renumbered
			i := rng.Intn(len(rs))
			fs.Residencies = slices.Delete(rs, i, i+1)
		case op == 3:
			delete(out.Files, vid)
		default: // added
			load := grid(20)
			fs.Residencies = append(rs, schedule.Residency{Video: vid, Loc: storages[rng.Intn(len(storages))],
				Load: load, LastService: load + grid(12)})
		}
	}
	return out
}

// The kept ledger is a fresh build: after every Follow, its breakpoints, bit
// for bit, and its overflows are FromSchedule's of the schedule it follows,
// over chains of schedules whose records at a node often share a time. Ties
// decide bits here — a ledger fed the same records in another order differs
// somewhere — so the test would see a kept ledger that put them in its own.
func TestKeptLedgerIsAFreshBuild(t *testing.T) {
	topo, cat := tieRig(t)
	tiesDecide := false
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kept := occupancy.NewKept(topo, cat)
		var held *schedule.Schedule
		for step := range 40 {
			next := mutate(rng, topo, cat, held)
			kept.Follow(held, next)
			fresh := occupancy.FromSchedule(topo, cat, next)
			if d := occupancy.Diff(topo, kept, fresh); d != "" {
				t.Fatalf("seed %d, step %d: the kept ledger differs from a fresh build: %s", seed, step, d)
			}
			if !tiesDecide {
				reversed := occupancy.NewLedger(topo, cat)
				vids := next.VideoIDs()
				for i := len(vids) - 1; i >= 0; i-- {
					for j, c := range next.Files[vids[i]].Residencies {
						reversed.Add(occupancy.Ref{Video: vids[i], Index: j}, c)
					}
				}
				tiesDecide = occupancy.Diff(topo, reversed, fresh) != ""
			}
			held = next
		}
	}
	if !tiesDecide {
		t.Fatal("no schedule had records at one time whose order decides a bit: the test cannot see a wrong order")
	}
}

// FuzzCapacityExtension holds the kept ledger to a fresh build on arbitrary
// decoded schedules: whatever schedule it held, following prev and then next
// leaves it answering as FromSchedule(prev) and then FromSchedule(next) do,
// breakpoints bit for bit and overflows alike. A schedule that fails
// ValidateStructure is not one a ledger is built from. One kept ledger is
// kept across inputs, as a service keeps its checker's.
func FuzzCapacityExtension(f *testing.F) {
	r, err := testutil.Build(testutil.Params{Storages: 3, UsersPerStorage: 2, Titles: 4,
		CapacityGB: 3, RequestsPerUser: 3, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	var seeds [][]byte
	for _, n := range []int{0, len(reqs) / 3, len(reqs) / 2, len(reqs)} {
		out, err := scheduler.Run(r.Model, reqs[:n], scheduler.Config{SkipResolution: true})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, out.Schedule.AppendJSON(nil))
	}
	for i := range seeds {
		for j := range seeds {
			f.Add(seeds[i], seeds[j])
		}
	}
	kept := occupancy.NewKept(r.Topo, r.Catalog)
	var held *schedule.Schedule
	f.Fuzz(func(t *testing.T, prevBlob, nextBlob []byte) {
		var prev, next *schedule.Schedule
		if json.Unmarshal(prevBlob, &prev) != nil || json.Unmarshal(nextBlob, &next) != nil ||
			prev == nil || next == nil ||
			prev.ValidateStructure(r.Topo, r.Catalog) != nil || next.ValidateStructure(r.Topo, r.Catalog) != nil {
			return
		}
		for _, s := range []*schedule.Schedule{prev, next} {
			kept.Follow(held, s)
			held = s
			if d := occupancy.Diff(r.Topo, kept, occupancy.FromSchedule(r.Topo, r.Catalog, s)); d != "" {
				t.Fatalf("the kept ledger differs from a fresh build: %s", d)
			}
		}
	})
}
