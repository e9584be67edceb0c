package occupancy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// equivTol absorbs the accumulation-order difference between the ledger
// and its reference: the reference re-sums Eq. 6 per entry while the index
// sweeps jumps and integrates slopes, so results may differ by float
// rounding but never by more than a few ulps of the byte totals involved.
const equivTol = 1e-6

// slot is one residency a random history left registered.
type slot struct {
	ref Ref
	c   schedule.Residency
}

// randomLedgers builds a ledger and its reference over the same topology
// and feeds both the identical seeded mutation sequence: adds, extensions,
// relocations and whole-video removals, with spans from zero (γ=0
// tentatives) through short to long residencies. It also returns what is
// left registered.
func randomLedgers(t testing.TB, seed int64, nvideos, muts int) (*refLedger, *Ledger, []slot, *topology.Topology) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	var stores []topology.NodeID
	for i := 0; i < 4; i++ {
		stores = append(stores, b.Storage(fmt.Sprintf("IS%d", i), 2500))
	}
	b.Connect(vw, stores[0])
	for i := 1; i < len(stores); i++ {
		b.Connect(stores[i-1], stores[i])
	}
	b.AttachUsers(stores[0], 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(nvideos, 1000, p, units.BytesPerSec(1000.0/100*2))
	if err != nil {
		t.Fatal(err)
	}
	ref, indexed := newRefLedger(topo, cat), NewLedger(topo, cat)

	rng := rand.New(rand.NewSource(seed))
	var live []slot
	randRes := func(vid media.VideoID) schedule.Residency {
		loc := stores[rng.Intn(len(stores))]
		load := simtime.Time(rng.Intn(500)) * simtime.Time(simtime.Second)
		span := simtime.Duration(rng.Intn(250)) * simtime.Second
		if rng.Intn(5) == 0 {
			span = 0 // zero-span tentative: occupies nothing
		}
		return res(vid, loc, load, load.Add(span))
	}
	nextIdx := make(map[media.VideoID]int)
	for m := 0; m < muts; m++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // add
			vid := media.VideoID(rng.Intn(nvideos))
			r := Ref{Video: vid, Index: nextIdx[vid]}
			nextIdx[vid]++
			c := randRes(vid)
			ref.Add(r, c)
			indexed.Add(r, c)
			live = append(live, slot{r, c})
		case op < 9: // extend or relocate
			i := rng.Intn(len(live))
			c := live[i].c
			if rng.Intn(2) == 0 {
				c.LastService = c.LastService.Add(simtime.Duration(rng.Intn(100)) * simtime.Second)
			} else {
				c.Loc = stores[rng.Intn(len(stores))]
			}
			if got, want := indexed.Update(live[i].ref, c), ref.Update(live[i].ref, c); got != want {
				t.Fatalf("Update found mismatch: reference=%v indexed=%v", want, got)
			}
			live[i].c = c
		default: // remove a whole video
			vid := media.VideoID(rng.Intn(nvideos))
			ref.RemoveVideo(vid)
			indexed.RemoveVideo(vid)
			live = slices.DeleteFunc(live, func(s slot) bool { return s.ref.Video == vid })
		}
	}
	return ref, indexed, live, topo
}

// fitQueries asks a ledger or view and its reference the same capacity
// questions at the node — k random candidates of the given videos, and an
// extension in place of every registered copy in own, excluding the copy's
// own profile as the greedy's extension check does — and fails on the
// first answer they disagree on.
func fitQueries(t *testing.T, rng *rand.Rand, ref *refLedger, l *Ledger, node topology.NodeID,
	k int, video func() media.VideoID, own []slot) {
	t.Helper()
	for i := 0; i < k; i++ {
		load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
		span := simtime.Duration(rng.Intn(300)) * simtime.Second
		cand := res(video(), node, load, load.Add(span))
		if a, b := ref.CanFitExcluding(cand, nil), l.CanFitExcluding(cand, nil); a != b {
			t.Fatalf("CanFitExcluding(%v, nil): reference %v, indexed %v", cand, a, b)
		}
	}
	for _, s := range own {
		if s.c.Loc != node {
			continue
		}
		ext := s.c
		ext.LastService = ext.LastService.Add(simtime.Duration(1+rng.Intn(200)) * simtime.Second)
		if a, b := ref.CanFitExcluding(ext, &s.ref), l.CanFitExcluding(ext, &s.ref); a != b {
			t.Fatalf("CanFitExcluding(%v, %v): reference %v, indexed %v", ext, s.ref, a, b)
		}
	}
}

// spaceGrid fails unless the ledger or view answers SpaceAt at every point
// of a time grid like the reference does.
func spaceGrid(t *testing.T, ref *refLedger, l *Ledger, node topology.NodeID, step, points int) {
	t.Helper()
	for ti := 0; ti <= points; ti++ {
		at := simtime.Time(ti*step) * simtime.Time(simtime.Second)
		if a, b := ref.SpaceAt(node, at), l.SpaceAt(node, at); math.Abs(a-b) > equivTol*(1+math.Abs(a)) {
			t.Fatalf("SpaceAt(%d, %v): reference %g, indexed %g", node, at, a, b)
		}
	}
}

// TestPropertyNaiveIndexedEquivalence drives the ledger and its brute-force
// reference through the same seeded random mutation sequences and demands
// they agree on every query the scheduler uses: SpaceAt over a time grid,
// Peak, Overflows, OverflowSet, and CanFitExcluding for random fresh
// candidates and for an extension of every registered copy.
func TestPropertyNaiveIndexedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref, indexed, live, topo := randomLedgers(t, seed, 6, 120)
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for n := 1; n < topo.NumNodes(); n++ {
				node := topology.NodeID(n)
				spaceGrid(t, ref, indexed, node, 10, 90)
				pa, ta := ref.Peak(node)
				pb, tb := indexed.Peak(node)
				if math.Abs(pa-pb) > equivTol*(1+math.Abs(pa)) {
					t.Fatalf("Peak(%d): reference %g@%v, indexed %g@%v", node, pa, ta, pb, tb)
				}
				ofa, ofb := ref.Overflows(node), indexed.Overflows(node)
				if len(ofa) != len(ofb) {
					t.Fatalf("Overflows(%d): reference %v, indexed %v", node, ofa, ofb)
				}
				for i := range ofa {
					// A capacity crossing is rounded outward to the second, so
					// one that falls on a whole second may land either side of
					// it on float rounding.
					a, b := ofa[i].Interval, ofb[i].Interval
					if max(a.Start-b.Start, b.Start-a.Start, a.End-b.End, b.End-a.End) > simtime.Time(simtime.Second) ||
						math.Abs(ofa[i].Peak-ofb[i].Peak) > equivTol*(1+ofa[i].Peak) {
						t.Fatalf("Overflows(%d)[%d]: reference %v, indexed %v", node, i, ofa[i], ofb[i])
					}
					sa := ref.OverflowSet(node, b)
					if sb := indexed.OverflowSet(nil, node, b); !slices.Equal(sa, sb) {
						t.Fatalf("OverflowSet(%d, %v): reference %v, indexed %v", node, b, sa, sb)
					}
				}
				// Random candidates, including some that barely fit or barely
				// overflow around the shared capacity.
				fitQueries(t, rng, ref, indexed, node, 40, func() media.VideoID { return media.VideoID(rng.Intn(6)) }, live)
			}
		})
	}
}

// TestPropertyOverlayMatchesCloneRemove pins the overlay view to its
// specification: for seeded random ledgers, OverlayWithout(v) must answer
// SpaceAt and CanFitExcluding exactly like a copy of the reference with v
// removed, before and after the reschedule registers its copies, and
// committing the reschedule's file (CommitFile) must leave the base holding
// what that copy holds, entry for entry in the same order, while keeping the
// prefix snapshot of every node the reschedule did not touch.
func TestPropertyOverlayMatchesCloneRemove(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref, indexed, _, topo := randomLedgers(t, seed, 6, 120)
			rng := rand.New(rand.NewSource(seed ^ 0x0f1a7))
			touched, untouched := 0, 0
			for vid := media.VideoID(0); vid < 6; vid++ {
				view := indexed.OverlayWithout(vid)
				want := ref.without(vid)
				for n := 1; n < topo.NumNodes(); n++ {
					node := topology.NodeID(n)
					spaceGrid(t, want, view, node, 15, 60)
					fitQueries(t, rng, want, view, node, 25, func() media.VideoID { return vid }, nil)
				}
				// The reschedule: a file of three copies registered in index
				// order the way the greedy's prune leaves them, nodes
				// interleaved, one of them a zero-span copy with no records.
				file := &schedule.FileSchedule{Video: vid}
				var own []slot
				for j := 0; j < 3; j++ {
					load := simtime.Time(100 * (j + 1))
					add := res(vid, topology.NodeID(1+rng.Intn(topo.NumNodes()-1)), load, load+simtime.Time(150*(j%2)))
					file.Residencies = append(file.Residencies, add)
					own = append(own, slot{Ref{Video: vid, Index: j}, add})
					view.Add(own[j].ref, add)
					want.Add(own[j].ref, add)
				}
				for n := 1; n < topo.NumNodes(); n++ {
					node := topology.NodeID(n)
					spaceGrid(t, want, view, node, 15, 60)
					fitQueries(t, rng, want, view, node, 5, func() media.VideoID { return vid }, own)
				}
				verBefore := make([]uint64, topo.NumNodes())
				builtBefore := make([]uint64, topo.NumNodes())
				for n := range verBefore {
					verBefore[n], builtBefore[n] = indexed.nodes[n].ver, indexed.snap[n].builtAt
				}
				indexed.CommitFile(file)
				view.Release()
				for n := 0; n < topo.NumNodes(); n++ {
					node := topology.NodeID(n)
					if indexed.nodes[n].ver == verBefore[n] {
						untouched++
						if got := indexed.snap[n].builtAt; got != builtBefore[n] || got != verBefore[n]+1 {
							t.Fatalf("vid %d node %d untouched by the commit but its snapshot is gone (builtAt %d, was %d)",
								vid, node, got, builtBefore[n])
						}
					} else {
						touched++
						if indexed.snap[n].builtAt == indexed.nodes[n].ver+1 {
							t.Fatalf("vid %d node %d mutated by the commit but its snapshot still reads as current", vid, node)
						}
						indexed.SpaceAt(node, 0)
						if indexed.snap[n].builtAt != indexed.nodes[n].ver+1 {
							t.Fatalf("vid %d node %d snapshot not rebuilt on first query after the commit", vid, node)
						}
					}
					got := indexed.nodes[n].entries
					if len(got) != len(want.entries[n]) {
						t.Fatalf("vid %d node %d: commit holds %d entries, the reference %d", vid, node, len(got), len(want.entries[n]))
					}
					for i, e := range want.entries[n] {
						if g := got[i].res; got[i].ref != e.ref || g.Loc != e.res.Loc || g.Load != e.res.Load || g.LastService != e.res.LastService {
							t.Fatalf("vid %d node %d entry %d: commit %v %v, reference %v %v", vid, node, i, got[i].ref, got[i].res, e.ref, e.res)
						}
					}
					if n > 0 {
						spaceGrid(t, want, indexed, node, 15, 60)
					}
				}
				ref = want
			}
			if touched == 0 || untouched == 0 {
				t.Fatalf("fixture bug: commits touched %d nodes and spared %d; need both", touched, untouched)
			}
		})
	}
}
