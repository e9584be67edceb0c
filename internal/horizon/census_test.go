package horizon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// census is what the closes of a rolling run did to history nothing new
// asked for.
type census struct {
	closes, victims int
	// idle counts, summed over closes, the videos with no pending request
	// and something to re-plan; identical those whose file came out of the
	// close byte for byte as it went in, and victimsBefore the rest that a
	// previous close had taken a victim from.
	idle, identical, victimsBefore int
	// extended counts the frozen residencies whose committed LastService lay
	// before the new horizon and that the close extended all the same;
	// drained those of them whose space profile had ended (LastService + P)
	// before the horizon too.
	extended, drained int
}

// censusRig overflows its 4 GB storages at most closes, and its 480
// reservations close 24 epochs of twenty, dense enough that a title is asked
// for again where a frozen copy of it lies.
func censusRig(t *testing.T) (*testutil.Rig, workload.Set) {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 4, RequestsPerUser: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	return r, reqs
}

// takeCensus drives the trace through a service, closing an epoch after every
// twentieth reservation an hour behind intake, and compares every video's
// file across every close.
func takeCensus(t *testing.T, r *testutil.Rig, reqs workload.Set, procs int) census {
	t.Helper()
	testutil.SetProcs(t, procs)
	svc := New(r.Model, Config{})
	var c census
	victimized := make(map[media.VideoID]bool)
	for i, q := range reqs {
		if _, err := svc.Submit(q.Start, q); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 != 0 {
			continue
		}
		before := svc.st
		to := simtime.Max(before.Horizon, q.Start.Add(-simtime.Hour))
		res, err := svc.Advance(context.Background(), to)
		if err != nil {
			t.Fatal(err)
		}
		after := svc.st.Committed
		c.closes++
		c.victims += len(res.Victims)
		pending := make(map[media.VideoID]bool)
		for _, p := range before.Accepted[before.planned:] {
			pending[p.Video] = true
		}
		for vid, was := range before.Committed.Files {
			now := after.File(vid)
			if n := len(was.Deliveries); !pending[vid] && n > 0 && was.Deliveries[n-1].Start >= to {
				c.idle++
				switch {
				case bytes.Equal(mustMarshal(t, was), mustMarshal(t, now)):
					c.identical++
				case victimized[vid]:
					c.victimsBefore++
				}
			}
			playback := r.Catalog.Video(vid).Playback
			for j, old := range was.Residencies {
				if old.LastService >= to {
					continue
				}
				kept := now.Residencies[j]
				if kept.Loc != old.Loc || kept.Load != old.Load {
					t.Fatalf("video %d: frozen residency %d moved from (%d, %v) to (%d, %v)", vid, j, old.Loc, old.Load, kept.Loc, kept.Load)
				}
				if kept.LastService > old.LastService {
					c.extended++
					if old.LastService.Add(playback) < to {
						c.drained++
					}
				}
			}
		}
		for _, v := range res.Victims {
			victimized[v.Video] = true
		}
	}
	return c
}

// The census behind ROADMAP items 3 and 12(a), taken without changing the
// solver: at every close of a SORP-active rolling run, how many videos that
// received nothing re-plan to the bytes they had, and how many frozen copies
// that served their last reader before the horizon are extended anyway —
// which a sealed, drained copy could not be. The counts are the solver's, so
// they repeat at every GOMAXPROCS.
func TestCensusOfUntouchedHistory(t *testing.T) {
	r, reqs := censusRig(t)
	want := takeCensus(t, r, reqs, 1)
	t.Logf("%d closes, %d victims", want.closes, want.victims)
	t.Logf("(a) videos with no pending request: %d of %d re-planned byte-identical; of the %d misses, %d had lost a victim at an earlier close",
		want.identical, want.idle, want.idle-want.identical, want.victimsBefore)
	t.Logf("(b) frozen residencies extended past a LastService before the horizon: %d, of which %d had drained (LastService + P before it)",
		want.extended, want.drained)
	if want.victims == 0 || want.idle == 0 || want.extended == 0 {
		t.Fatalf("fixture bug: %+v; want SORP at work, videos with nothing pending and frozen copies extended", want)
	}
	for _, procs := range []int{2, 4} {
		if got := takeCensus(t, r, reqs, procs); got != want {
			t.Errorf("GOMAXPROCS=%d: census %+v, at GOMAXPROCS=1 %+v", procs, got, want)
		}
	}
}

// The rule the schedule encoder rests on, read off the encoded bytes: in every
// plan and snapshot of a rolling run, and in a batch with pre-placed copies,
// each residency's service list is the ascending list of the deliveries that
// draw from the copy, and an empty list is null exactly when the copy is
// pre-placed. A shard's plan, that is: the gateway's merge writes null for a
// file's first part by a rule of its own.
func TestEncodedServiceListsAreTheReaders(t *testing.T) {
	var lists, nulls, empties int
	check := func(what string, blob []byte, into any, s **testutil.WireSchedule) {
		t.Helper()
		if err := json.Unmarshal(blob, into); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for vid, w := range (*s).Files {
			want := testutil.WireFileOf(w.File())
			for j, c := range w.Residencies {
				if got, want := c.Services, want.Residencies[j].Services; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: video %d residency %d (fed by %d) lists %#v, its readers are %#v", what, vid, j, c.FedBy, got, want)
				}
				lists++
				if c.Services == nil {
					nulls++
				} else if len(c.Services) == 0 {
					empties++
				}
			}
		}
	}

	r, reqs := censusRig(t)
	svc := New(r.Model, Config{})
	for i, q := range reqs {
		if _, err := svc.Submit(q.Start, q); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 != 0 {
			continue
		}
		if _, err := svc.Advance(context.Background(), simtime.Max(svc.Horizon(), q.Start.Add(-simtime.Hour))); err != nil {
			t.Fatal(err)
		}
		var plan *testutil.WireSchedule
		check(fmt.Sprintf("epoch %d plan", svc.Epoch()), svc.Plan().Schedule.AppendJSON(nil), &plan, &plan)
		blob, err := svc.st.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Committed *testutil.WireSchedule `json:"committed"`
		}
		check(fmt.Sprintf("epoch %d snapshot", svc.Epoch()), blob, &snap, &snap.Committed)
	}
	rolled := lists

	// A roomy rig with a standing copy at every storage, of a title its users
	// may or may not ask for.
	b, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 50, RequestsPerUser: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[media.VideoID][]schedule.Residency)
	for k, n := range b.Topo.Storages() {
		vid := media.VideoID(k % b.Catalog.Len())
		seeds[vid] = append(seeds[vid], schedule.Residency{
			Video: vid, Loc: n, Src: b.Topo.Warehouse(),
			Load: 0, LastService: simtime.Time(9 * simtime.Hour), FedBy: schedule.PrePlacedFeed,
		})
	}
	out, err := scheduler.Run(b.Model, b.Requests, scheduler.Config{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	var batch *testutil.WireSchedule
	check("seeded batch", out.Schedule.AppendJSON(nil), &batch, &batch)

	t.Logf("%d service lists (%d from the rolling run), %d null, %d []", lists, rolled, nulls, empties)
	if rolled == 0 || nulls == 0 || empties == 0 || lists == nulls+empties {
		t.Fatalf("fixture bug: want lists from both runs, and null, [] and non-empty lists among them")
	}
}
