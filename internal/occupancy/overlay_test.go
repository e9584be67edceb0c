package occupancy

import (
	"runtime"
	"testing"

	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

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
