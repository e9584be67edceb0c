package occupancy

import (
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// snapshot captures the observable state of a node: the occupancy at every
// breakpoint, which pins both membership and spans.
func snapshot(l *Ledger, node topology.NodeID) map[simtime.Time]float64 {
	out := make(map[simtime.Time]float64)
	for _, t := range l.breakpoints(node, nil) {
		out[t] = l.SpaceAt(node, t)
	}
	return out
}

func equalSnapshots(a, b map[simtime.Time]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for t, s := range a {
		if bs, ok := b[t]; !ok || bs != s {
			return false
		}
	}
	return true
}

// TestCloneIndependence drives every mutator against a clone and against
// the source and checks the other side never observes the change — the
// contract of the deep copy.
func TestCloneIndependence(t *testing.T) {
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)

	build := func() *Ledger {
		l := NewLedger(topo, cat)
		l.Add(Ref{0, 0}, res(0, is1, 0, 200))
		l.Add(Ref{0, 1}, res(0, is2, 50, 150))
		l.Add(Ref{1, 0}, res(1, is1, 100, 150))
		return l
	}

	mutate := map[string]func(l *Ledger){
		"add":          func(l *Ledger) { l.Add(Ref{1, 1}, res(1, is1, 300, 400)) },
		"update":       func(l *Ledger) { l.Update(Ref{0, 0}, res(0, is1, 0, 500)) },
		"relocate":     func(l *Ledger) { l.Update(Ref{0, 0}, res(0, is2, 0, 200)) },
		"remove":       func(l *Ledger) { l.Remove(Ref{1, 0}) },
		"remove-video": func(l *Ledger) { l.RemoveVideo(0) },
	}

	for name, fn := range mutate {
		// Mutating the clone must not leak into the source.
		src := build()
		before1, before2 := snapshot(src, is1), snapshot(src, is2)
		cl := src.Clone()
		fn(cl)
		if !equalSnapshots(snapshot(src, is1), before1) || !equalSnapshots(snapshot(src, is2), before2) {
			t.Errorf("%s: clone mutation leaked into source", name)
		}

		// Mutating the source must not leak into the clone.
		src = build()
		cl = src.Clone()
		want1, want2 := snapshot(cl, is1), snapshot(cl, is2)
		fn(src)
		if !equalSnapshots(snapshot(cl, is1), want1) || !equalSnapshots(snapshot(cl, is2), want2) {
			t.Errorf("%s: source mutation leaked into clone", name)
		}
	}
}

// TestCloneOfClone checks independence through a chain of clones.
func TestCloneOfClone(t *testing.T) {
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	a := NewLedger(topo, cat)
	a.Add(Ref{0, 0}, res(0, is1, 0, 200))

	b := a.Clone()
	c := b.Clone()
	c.Add(Ref{1, 0}, res(1, is1, 100, 150))
	b.RemoveVideo(0)

	if got := a.NumEntries(is1); got != 1 {
		t.Errorf("root ledger: %d entries, want 1", got)
	}
	if got := b.NumEntries(is1); got != 0 {
		t.Errorf("middle clone: %d entries, want 0", got)
	}
	if got := c.NumEntries(is1); got != 2 {
		t.Errorf("leaf clone: %d entries, want 2", got)
	}
}

// TestOverlayDeltaSizedByMaskedVideo pins what a view costs to build: its
// per-node delta holds the masked video's own records, so its capacity and
// the bytes OverlayWithout allocates must not grow with the number of
// other videos' residencies on the node. The views are built new, not
// taken from the free list, whose arrays keep the capacity of whatever
// they served before.
func TestOverlayDeltaSizedByMaskedVideo(t *testing.T) {
	viewPool.Lock()
	viewPool.views = nil
	viewPool.Unlock()
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	build := func(others int) *Ledger {
		l := NewLedger(topo, cat)
		for i := 0; i < others; i++ {
			l.Add(Ref{Video: 0, Index: i}, res(0, is1, simtime.Time(i), simtime.Time(i+50)))
		}
		l.Add(Ref{Video: 1, Index: 0}, res(1, is1, 0, 100))
		return l
	}
	cost := func(l *Ledger) (allocs float64, bytes uint64) {
		l.OverlayWithout(1) // builds the base's snapshots once
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { l.OverlayWithout(1) })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}

	big, small := build(500), build(5)
	const copies = 1
	if got := cap(big.OverlayWithout(1).nodes[is1].events); got > 2*3*copies {
		t.Errorf("view delta capacity %d for %d masked copy; want <= %d", got, copies, 2*3*copies)
	}
	bigAllocs, bigBytes := cost(big)
	smallAllocs, smallBytes := cost(small)
	if bigAllocs != smallAllocs {
		t.Errorf("OverlayWithout allocs depend on unrelated residencies: %v with 500, %v with 5", bigAllocs, smallAllocs)
	}
	if bigBytes > smallBytes+smallBytes/10 {
		t.Errorf("OverlayWithout bytes depend on unrelated residencies: %d with 500, %d with 5", bigBytes, smallBytes)
	}
}
