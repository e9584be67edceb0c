package occupancy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// equivTol absorbs the accumulation-order difference between the two query
// paths: the naive path re-sums Eq. 6 per entry while the index sweeps
// jumps and integrates slopes, so results may differ by float rounding but
// never by more than a few ulps of the byte totals involved.
const equivTol = 1e-6

// randomLedgers builds a naive and an indexed ledger over the same topology
// and feeds both the identical seeded mutation sequence: adds, extensions,
// relocations, removals and whole-video removals, with spans from zero
// (γ=0 tentatives) through short to long residencies.
func randomLedgers(t *testing.T, seed int64, nvideos, muts int) (*Ledger, *Ledger, *topology.Topology, *media.Catalog) {
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

	SetNaiveForTesting(true)
	naive := NewLedger(topo, cat)
	SetNaiveForTesting(false)
	indexed := NewLedger(topo, cat)
	if naive.naive == indexed.naive {
		t.Fatal("fixture bug: both ledgers on the same query path")
	}

	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		ref Ref
		c   schedule.Residency
	}
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
		case op < 5 || len(live) == 0: // add
			vid := media.VideoID(rng.Intn(nvideos))
			ref := Ref{Video: vid, Index: nextIdx[vid]}
			nextIdx[vid]++
			c := randRes(vid)
			naive.Add(ref, c)
			indexed.Add(ref, c)
			live = append(live, slot{ref, c})
		case op < 7: // extend or relocate
			i := rng.Intn(len(live))
			c := live[i].c
			if rng.Intn(2) == 0 {
				c.LastService = c.LastService.Add(simtime.Duration(rng.Intn(100)) * simtime.Second)
			} else {
				c.Loc = stores[rng.Intn(len(stores))]
			}
			if got, want := naive.Update(live[i].ref, c), indexed.Update(live[i].ref, c); got != want {
				t.Fatalf("Update found mismatch: naive=%v indexed=%v", got, want)
			}
			live[i].c = c
		case op < 9: // remove one
			i := rng.Intn(len(live))
			if got, want := naive.Remove(live[i].ref), indexed.Remove(live[i].ref); got != want {
				t.Fatalf("Remove found mismatch: naive=%v indexed=%v", got, want)
			}
			live = append(live[:i], live[i+1:]...)
		default: // remove a whole video
			vid := media.VideoID(rng.Intn(nvideos))
			naive.RemoveVideo(vid)
			indexed.RemoveVideo(vid)
			kept := live[:0]
			for _, s := range live {
				if s.ref.Video != vid {
					kept = append(kept, s)
				}
			}
			live = kept
		}
	}
	return naive, indexed, topo, cat
}

// TestPropertyNaiveIndexedEquivalence drives both query paths through the
// same seeded random mutation sequences and demands they agree on every
// query the scheduler uses: SpaceAt over a time grid, Peak, Overflows,
// OverflowSet and CanFit/CanFitExcluding for random candidates.
func TestPropertyNaiveIndexedEquivalence(t *testing.T) {
	defer SetNaiveForTesting(false)
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			naive, indexed, topo, _ := randomLedgers(t, seed, 6, 120)
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for n := 1; n < topo.NumNodes(); n++ {
				node := topology.NodeID(n)
				for ti := 0; ti <= 90; ti++ {
					at := simtime.Time(ti*10) * simtime.Time(simtime.Second)
					a, b := naive.SpaceAt(node, at), indexed.SpaceAt(node, at)
					if math.Abs(a-b) > equivTol*(1+math.Abs(a)) {
						t.Fatalf("SpaceAt(%d, %v): naive %g, indexed %g", node, at, a, b)
					}
				}
				pa, ta := naive.Peak(node)
				pb, tb := indexed.Peak(node)
				if math.Abs(pa-pb) > equivTol*(1+math.Abs(pa)) {
					t.Fatalf("Peak(%d): naive %g@%v, indexed %g@%v", node, pa, ta, pb, tb)
				}
				ofa, ofb := naive.Overflows(node), indexed.Overflows(node)
				if len(ofa) != len(ofb) {
					t.Fatalf("Overflows(%d): naive %v, indexed %v", node, ofa, ofb)
				}
				for i := range ofa {
					if ofa[i].Interval != ofb[i].Interval ||
						math.Abs(ofa[i].Peak-ofb[i].Peak) > equivTol*(1+ofa[i].Peak) {
						t.Fatalf("Overflows(%d)[%d]: naive %v, indexed %v", node, i, ofa[i], ofb[i])
					}
					sa := naive.OverflowSet(node, ofa[i].Interval)
					sb := indexed.OverflowSet(node, ofb[i].Interval)
					if len(sa) != len(sb) {
						t.Fatalf("OverflowSet(%d): naive %v, indexed %v", node, sa, sb)
					}
					for j := range sa {
						if sa[j] != sb[j] {
							t.Fatalf("OverflowSet(%d)[%d]: naive %v, indexed %v", node, j, sa[j], sb[j])
						}
					}
				}
				// Random candidates, including some that barely fit or barely
				// overflow around the shared capacity.
				for k := 0; k < 40; k++ {
					load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
					span := simtime.Duration(rng.Intn(300)) * simtime.Second
					cand := res(media.VideoID(rng.Intn(6)), node, load, load.Add(span))
					if a, b := naive.CanFit(cand), indexed.CanFit(cand); a != b {
						t.Fatalf("CanFit(%v): naive %v, indexed %v", cand, a, b)
					}
				}
			}
		})
	}
}

// TestPropertyOverlayMatchesCloneRemove pins the overlay view to its
// specification: for seeded random ledgers, OverlayWithout(v) must answer
// SpaceAt and CanFit exactly like Clone-then-RemoveVideo(v), and Commit
// must leave the base in the clone path's committed state byte for byte
// (entry order, event arrays and version counters included) while keeping
// the prefix snapshot of every node the reschedule did not touch. A twin
// ledger fed the same history takes each reschedule through CommitFile —
// the commit of a reused winner, whose view no longer exists — and must
// come out identical to the view's Commit in all of those.
func TestPropertyOverlayMatchesCloneRemove(t *testing.T) {
	defer SetNaiveForTesting(false)
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, indexed, topo, _ := randomLedgers(t, seed, 6, 120)
			_, twin, _, _ := randomLedgers(t, seed, 6, 120)
			rng := rand.New(rand.NewSource(seed ^ 0x0f1a7))
			touched, untouched := 0, 0
			for vid := media.VideoID(0); vid < 6; vid++ {
				view := indexed.OverlayWithout(vid)
				ref := indexed.Clone()
				ref.RemoveVideo(vid)
				for n := 1; n < topo.NumNodes(); n++ {
					node := topology.NodeID(n)
					for ti := 0; ti <= 60; ti++ {
						at := simtime.Time(ti*15) * simtime.Time(simtime.Second)
						a, b := ref.SpaceAt(node, at), view.SpaceAt(node, at)
						if math.Abs(a-b) > equivTol*(1+math.Abs(a)) {
							t.Fatalf("vid %d SpaceAt(%d,%v): clone %g, overlay %g", vid, node, at, a, b)
						}
					}
					for k := 0; k < 25; k++ {
						load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
						span := simtime.Duration(rng.Intn(300)) * simtime.Second
						cand := res(vid, node, load, load.Add(span))
						if a, b := ref.CanFit(cand), view.CanFit(cand); a != b {
							t.Fatalf("vid %d CanFit(%v): clone %v, overlay %v", vid, cand, a, b)
						}
					}
				}
				// Mutate both identically, then commit the view and compare
				// its base against the clone: same entries, same versions.
				// The reschedule: a file of three copies registered in index
				// order the way the greedy's prune leaves them, nodes
				// interleaved, one of them a zero-span copy with no records.
				file := &schedule.FileSchedule{Video: vid}
				for j := 0; j < 3; j++ {
					load := simtime.Time(100 * (j + 1))
					add := res(vid, topology.NodeID(1+rng.Intn(topo.NumNodes()-1)), load, load+simtime.Time(150*(j%2)))
					file.Residencies = append(file.Residencies, add)
					view.Add(Ref{Video: vid, Index: j}, add)
					ref.Add(Ref{Video: vid, Index: j}, add)
				}
				twin.OverlayWithout(vid) // builds the twin's snapshots as the view built the base's
				verBefore := make([]uint64, topo.NumNodes())
				builtBefore := make([]uint64, topo.NumNodes())
				for n := range verBefore {
					verBefore[n], builtBefore[n] = indexed.nodes[n].ver, indexed.snap[n].builtAt
				}
				flat := view.Commit()
				if flat != indexed {
					t.Fatalf("vid %d: Commit returned a ledger other than the view's base", vid)
				}
				twin.CommitFile(file)
				for n := range flat.nodes {
					if got, want := describe(&twin.nodes[n]), describe(&flat.nodes[n]); got != want {
						t.Fatalf("vid %d node %d: CommitFile left\n %s\nview.Commit left\n %s", vid, n, got, want)
					}
					if got, want := twin.snap[n].builtAt, flat.snap[n].builtAt; got != want {
						t.Fatalf("vid %d node %d: CommitFile leaves snapshot builtAt %d, view.Commit %d", vid, n, got, want)
					}
				}
				for n := 0; n < topo.NumNodes(); n++ {
					node := topology.NodeID(n)
					if got, want := flat.nodes[n].ver, ref.nodes[n].ver; got != want {
						t.Fatalf("vid %d node %d version: commit %d, clone %d", vid, node, got, want)
					}
					if flat.nodes[n].ver == verBefore[n] {
						untouched++
						if got := flat.snap[n].builtAt; got != builtBefore[n] || got != verBefore[n]+1 {
							t.Fatalf("vid %d node %d untouched by the commit but its snapshot is gone (builtAt %d, was %d)",
								vid, node, got, builtBefore[n])
						}
					} else {
						touched++
						if flat.snap[n].builtAt == flat.nodes[n].ver+1 {
							t.Fatalf("vid %d node %d mutated by the commit but its snapshot still reads as current", vid, node)
						}
						flat.SpaceAt(node, 0)
						if flat.snap[n].builtAt != flat.nodes[n].ver+1 {
							t.Fatalf("vid %d node %d snapshot not rebuilt on first query after the commit", vid, node)
						}
					}
					if got, want := flat.NumEntries(node), ref.NumEntries(node); got != want {
						t.Fatalf("vid %d node %d entries: commit %d, clone %d", vid, node, got, want)
					}
					a, b := ref.nodes[n], flat.nodes[n]
					for i := range a.entries {
						if a.entries[i].ref != b.entries[i].ref || a.entries[i].res.Loc != b.entries[i].res.Loc ||
							a.entries[i].v != b.entries[i].v || a.entries[i].k != b.entries[i].k {
							t.Fatalf("vid %d node %d entry %d differs", vid, node, i)
						}
					}
					if len(a.events) != len(b.events) {
						t.Fatalf("vid %d node %d: %d events vs %d", vid, node, len(a.events), len(b.events))
					}
					for i := range a.events {
						if a.events[i] != b.events[i] {
							t.Fatalf("vid %d node %d event %d: %+v vs %+v", vid, node, i, a.events[i], b.events[i])
						}
					}
				}
			}
			if touched == 0 || untouched == 0 {
				t.Fatalf("fixture bug: commits touched %d nodes and spared %d; need both", touched, untouched)
			}
		})
	}
}

// describe renders a node's state for commit comparisons.
func describe(st *nodeState) string {
	s := fmt.Sprintf("ver=%d events=%v entries=", st.ver, st.events)
	for i := range st.entries {
		e := &st.entries[i]
		s += fmt.Sprintf("{%v %v %v %v}", e.ref, e.res, e.v, e.k)
	}
	return s
}
