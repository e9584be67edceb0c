package occupancy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

const p = 100 * simtime.Second // playback length for test videos

// fixture: VW - IS1 - IS2, two 1000-byte videos with P = 100 s,
// IS capacities 1500 bytes.
func fixture(t testing.TB) (*topology.Topology, *media.Catalog) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 1500)
	is2 := b.Storage("IS2", 1500)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(2, 1000, p, units.BytesPerSec(1000.0/100*2))
	if err != nil {
		t.Fatal(err)
	}
	return topo, cat
}

func res(video media.VideoID, loc topology.NodeID, load, last simtime.Time) schedule.Residency {
	return schedule.Residency{Video: video, Loc: loc, Src: 0, Load: load, LastService: last}
}

// numEntries is the number of residencies registered at the node.
func numEntries(l *Ledger, node topology.NodeID) int { return len(l.nodes[node].entries) }

func TestSpaceAtSumsEntries(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))   // long: full 1000 on [0,200]
	l.Add(Ref{1, 0}, res(1, is1, 100, 150)) // short: γ=0.5 -> 500 on [100,150]
	if got := l.SpaceAt(is1, 50); got != 1000 {
		t.Errorf("t=50: %g, want 1000", got)
	}
	if got := l.SpaceAt(is1, 120); got != 1500 {
		t.Errorf("t=120: %g, want 1500", got)
	}
	if got := l.SpaceAt(is1, 0); got != 1000 {
		t.Errorf("t=0: %g", got)
	}
	if got := l.SpaceAt(topology.NodeID(2), 50); got != 0 {
		t.Errorf("other node: %g", got)
	}
	if numEntries(l, is1) != 2 {
		t.Error("entry count wrong")
	}
}

func TestPeak(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	l.Add(Ref{1, 0}, res(1, is1, 100, 150))
	peak, when := l.Peak(is1)
	if peak != 1500 {
		t.Errorf("peak = %g, want 1500", peak)
	}
	if when < 100 || when > 150 {
		t.Errorf("peak time = %v, want within [100,150]", when)
	}
	if pk, _ := l.Peak(topology.NodeID(2)); pk != 0 {
		t.Error("empty node peak must be 0")
	}
}

func TestNoOverflowUnderCapacity(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	if ovs := l.Overflows(is1); len(ovs) != 0 {
		t.Errorf("unexpected overflows: %v", ovs)
	}
	// Exactly at capacity is NOT an overflow (strict exceedance).
	l.Add(Ref{1, 0}, res(1, is1, 100, 150))
	if ovs := l.Overflows(is1); len(ovs) != 0 {
		t.Errorf("at-capacity must not overflow: %v", ovs)
	}
}

func TestOverflowDetection(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	// Two long residencies both at full size 1000: total 2000 > 1500 while
	// both plateaus overlap: [100, 200].
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	l.Add(Ref{1, 0}, res(1, is1, 100, 350))
	ovs := l.Overflows(is1)
	if len(ovs) != 1 {
		t.Fatalf("overflows = %v, want 1", ovs)
	}
	o := ovs[0]
	if o.Interval.Start != 100 {
		t.Errorf("overflow start = %v, want 100 (jump at second load)", o.Interval.Start)
	}
	// First residency decays from 200 to 300: total = 2000 - 10(t-200);
	// crosses 1500 at t = 250.
	if o.Interval.End != 250 {
		t.Errorf("overflow end = %v, want 250", o.Interval.End)
	}
	if math.Abs(o.Peak-2000) > eps {
		t.Errorf("peak = %g, want 2000", o.Peak)
	}
	if math.Abs(o.Excess-500) > eps {
		t.Errorf("excess = %g, want 500", o.Excess)
	}
	if o.Node != is1 {
		t.Error("overflow node wrong")
	}
	if o.String() == "" {
		t.Error("String empty")
	}
}

func TestTwoDistinctOverflows(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	// Overflow 1: [100, ~] from copies 0+1; overflow 2 disjoint: [1000, ~].
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	l.Add(Ref{1, 0}, res(1, is1, 100, 200))
	l.Add(Ref{0, 1}, res(0, is1, 1000, 1200))
	l.Add(Ref{1, 1}, res(1, is1, 1000, 1200))
	ovs := l.Overflows(is1)
	if len(ovs) != 2 {
		t.Fatalf("overflows = %v, want 2", ovs)
	}
	if ovs[0].Interval.Start != 100 || ovs[1].Interval.Start != 1000 {
		t.Errorf("overflow starts: %v, %v", ovs[0].Interval.Start, ovs[1].Interval.Start)
	}
	all := l.AllOverflows()
	if len(all) != 2 {
		t.Errorf("AllOverflows = %d", len(all))
	}
}

func TestOverflowFromRampCrossing(t *testing.T) {
	topo, cat := fixture(t)
	// Capacity 1500; one full-size copy (1000) plus a decaying copy that
	// pushes the total above capacity only during part of the decay.
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 300))    // 1000 on [0,300], decay to 400
	l.Add(Ref{1, 0}, res(1, is1, 200, 1000)) // 1000 on [200,1000]
	// Total on [200,300] = 2000; decay of copy 0 over [300,400]: crosses
	// 1500 at t=350.
	ovs := l.Overflows(is1)
	if len(ovs) != 1 {
		t.Fatalf("overflows = %v", ovs)
	}
	if ovs[0].Interval.Start != 200 || ovs[0].Interval.End != 350 {
		t.Errorf("interval = %v, want [200,350]", ovs[0].Interval)
	}
}

func TestOverflowSet(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))   // support [0, 300]
	l.Add(Ref{1, 0}, res(1, is1, 100, 350)) // support [100, 450]
	l.Add(Ref{1, 1}, res(1, is1, 900, 950)) // support [900, 1050]
	refs := l.OverflowSet(nil, is1, simtime.NewInterval(100, 250))
	if len(refs) != 2 {
		t.Fatalf("OverflowSet = %v, want 2 refs", refs)
	}
	if refs[0] != (Ref{0, 0}) || refs[1] != (Ref{1, 0}) {
		t.Errorf("OverflowSet = %v", refs)
	}
	// Degenerate instant interval still matches overlapping supports.
	refs = l.OverflowSet(nil, is1, simtime.NewInterval(950, 950))
	if len(refs) != 1 || refs[0] != (Ref{1, 1}) {
		t.Errorf("instant OverflowSet = %v", refs)
	}
	// The set is appended after what dst holds, which stays where it is, and
	// a buffer handed back is filled in place.
	buf := append(make([]Ref, 0, 4), Ref{9, 9})
	refs = l.OverflowSet(buf, is1, simtime.NewInterval(100, 250))
	if len(refs) != 3 || refs[0] != (Ref{9, 9}) || refs[1] != (Ref{0, 0}) || refs[2] != (Ref{1, 0}) {
		t.Errorf("OverflowSet after a prefix = %v", refs)
	}
	if again := l.OverflowSet(refs[:0], is1, simtime.NewInterval(950, 950)); len(again) != 1 || &again[0] != &buf[0] {
		t.Errorf("OverflowSet into a reused buffer = %v, not in its storage", again)
	}
}

func TestRemoveVideo(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	l.Add(Ref{1, 0}, res(1, is1, 100, 350))
	l.Add(Ref{1, 1}, res(1, is2, 0, 100))
	l.RemoveVideo(1)
	if numEntries(l, is1) != 1 || numEntries(l, is2) != 0 {
		t.Errorf("entries after remove: %d, %d", numEntries(l, is1), numEntries(l, is2))
	}
	if got := l.SpaceAt(is1, 120); got != 1000 {
		t.Errorf("space after remove = %g", got)
	}
}

func TestFromSchedule(t *testing.T) {
	topo, cat := fixture(t)
	s := schedule.New()
	fs := &schedule.FileSchedule{Video: 0}
	fs.Residencies = append(fs.Residencies, res(0, 1, 0, 200))
	s.Put(fs)
	l := FromSchedule(topo, cat, s)
	if numEntries(l, 1) != 1 {
		t.Error("FromSchedule missed residency")
	}
}

func TestCanFit(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 200))
	// A second full copy overlapping the plateau: 2000 > 1500.
	if l.CanFitExcluding(res(1, is1, 100, 350), nil) {
		t.Error("overlapping full copy must not fit")
	}
	// Same copy after the first one's support ends (t >= 300).
	if !l.CanFitExcluding(res(1, is1, 300, 500), nil) {
		t.Error("disjoint copy must fit")
	}
	// A short copy with γ=0.5 (500 bytes) fits alongside 1000.
	if !l.CanFitExcluding(res(1, is1, 100, 150), nil) {
		t.Error("short copy within headroom must fit")
	}
	// Zero-span tentative cache always fits.
	if !l.CanFitExcluding(res(1, is1, 100, 100), nil) {
		t.Error("zero-span cache must fit")
	}
	// Warehouse is unbounded.
	if !l.CanFitExcluding(res(1, topo.Warehouse(), 0, 10000), nil) {
		t.Error("warehouse must always fit")
	}
}

func TestBannedViolates(t *testing.T) {
	bn := Banned{Node: 1, Interval: simtime.NewInterval(100, 200)}
	// Overlapping support violates.
	if !bn.Violates(res(0, 1, 150, 160), p) {
		t.Error("overlapping residency must violate")
	}
	// Support ending before the window: support [0, 0+span+P].
	if bn.Violates(res(0, 1, 0, 0), p) {
		t.Error("support [0,100) must not violate window starting at 100")
	}
	// Different node never violates.
	if bn.Violates(res(0, 2, 150, 160), p) {
		t.Error("other node must not violate")
	}
	// Support beginning after the window.
	if bn.Violates(res(0, 1, 201, 300), p) {
		t.Error("later residency must not violate")
	}
	// Instant window at 200 (endpoint-inclusive end).
	inst := Banned{Node: 1, Interval: simtime.NewInterval(200, 200)}
	if !inst.Violates(res(0, 1, 150, 250), p) {
		t.Error("instant window inside support must violate")
	}
}

// Property: Overflows is consistent with pointwise sampling — at every
// integer second inside a reported overflow interval's interior the space
// exceeds capacity, and seconds far from any interval do not.
func TestPropertyOverflowPointwise(t *testing.T) {
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	capacity := 1500.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(topo, cat)
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			load := simtime.Time(rng.Intn(500))
			span := simtime.Duration(rng.Intn(400))
			l.Add(Ref{media.VideoID(rng.Intn(2)), i}, res(media.VideoID(rng.Intn(2)), is1, load, load.Add(span)))
		}
		ovs := l.Overflows(is1)
		inOverflow := func(x simtime.Time) bool {
			for _, o := range ovs {
				if x >= o.Interval.Start && x <= o.Interval.End {
					return true
				}
			}
			return false
		}
		for x := simtime.Time(0); x < 1100; x++ {
			s := l.SpaceAt(is1, x)
			if s > capacity+1 && !inOverflow(x) {
				return false
			}
			// Conservative widening allows boundary seconds inside the
			// interval to be at/below capacity, but interior points more
			// than 1 s from every boundary must exceed it.
			interior := false
			for _, o := range ovs {
				if x > o.Interval.Start && x < o.Interval.End {
					interior = true
				}
			}
			if interior && s <= capacity-1 {
				// Strictly inside an interval yet clearly below capacity:
				// only possible at merged boundaries; tolerate a 1-byte
				// epsilon but not a real dip.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: CanFitExcluding agrees with dense pointwise sampling of the
// combined profile on random ledger states.
func TestPropertyCanFitMatchesPointwise(t *testing.T) {
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	capacity := 1500.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(topo, cat)
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			load := simtime.Time(rng.Intn(300))
			span := simtime.Duration(rng.Intn(250))
			l.Add(Ref{media.VideoID(rng.Intn(2)), i}, res(media.VideoID(rng.Intn(2)), is1, load, load.Add(span)))
		}
		load := simtime.Time(rng.Intn(300))
		span := simtime.Duration(rng.Intn(250))
		cand := res(media.VideoID(rng.Intn(2)), is1, load, load.Add(span))
		got := l.CanFitExcluding(cand, nil)

		// Dense check at every second of the candidate's support. The
		// profile is piecewise linear with integer breakpoints, so unit
		// sampling is exact at the extremes.
		v := cat.Video(cand.Video)
		want := true
		sup := cand.Support(v.Playback)
		for x := sup.Start; x <= sup.End; x++ {
			if l.SpaceAt(is1, x)+cand.SpaceAt(x, v.Size.Float(), v.Playback) > capacity+eps {
				want = false
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUpdate(t *testing.T) {
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	l := NewLedger(topo, cat)
	ref := Ref{0, 0}
	l.Add(ref, res(0, is1, 0, 200))

	// In-place update (same node): extended span changes occupancy.
	if !l.Update(ref, res(0, is1, 0, 400)) {
		t.Fatal("Update returned false for existing ref")
	}
	if got := l.SpaceAt(is1, 350); got != 1000 {
		t.Errorf("space after extension = %g, want 1000", got)
	}

	// Relocating update: entry moves to the other node.
	if !l.Update(ref, res(0, is2, 0, 400)) {
		t.Fatal("relocating Update returned false")
	}
	if numEntries(l, is1) != 0 || numEntries(l, is2) != 1 {
		t.Errorf("entries after relocation: %d, %d", numEntries(l, is1), numEntries(l, is2))
	}
	if got := l.SpaceAt(is1, 350); got != 0 {
		t.Errorf("space left behind by the relocation = %g, want 0", got)
	}

	// Unknown ref.
	if l.Update(Ref{9, 9}, res(0, is1, 0, 10)) {
		t.Error("Update returned true for unknown ref")
	}
}

// A residency whose decay ends exactly when another loads must hand the
// space over without an instant of double counting: SpaceAt is zero at
// t >= LastService+P, so the boundary second belongs to the newcomer only.
func TestBoundaryHandoffNoDoubleCount(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	// Copy 0: plateau [0,100], decay [100,200), gone at exactly 200.
	// Copy 1: loads at exactly 200.
	l.Add(Ref{0, 0}, res(0, is1, 0, 100))
	l.Add(Ref{1, 0}, res(1, is1, 200, 400))
	if got := l.SpaceAt(is1, 200); got != 1000 {
		t.Errorf("boundary space = %g, want 1000 (old copy must be gone)", got)
	}
	if got := l.SpaceAt(is1, 199); math.Abs(got-10) > eps {
		t.Errorf("t=199: %g, want 10 (decay tail only; newcomer not loaded yet)", got)
	}
	// Double counting at the handoff instant would read 2000 > 1500 and
	// fabricate a phantom overflow.
	if ovs := l.Overflows(is1); len(ovs) != 0 {
		t.Errorf("phantom overflow at handoff boundary: %v", ovs)
	}
	if peak, _ := l.Peak(is1); peak != 1000 {
		t.Errorf("peak = %g, want 1000", peak)
	}
}

// SpaceAt's decay endpoint is exclusive: positive one second before the
// support ends, exactly zero at the end.
func TestBoundarySpaceAtSupportEnd(t *testing.T) {
	_, cat := fixture(t)
	c := res(0, 1, 0, 100) // support [0, 200)
	v := cat.Video(0)
	size, pb := v.Size.Float(), v.Playback
	if got := c.SpaceAt(199, size, pb); got <= 0 {
		t.Errorf("t=199 (inside decay): %g, want > 0", got)
	}
	if got := c.SpaceAt(200, size, pb); got != 0 {
		t.Errorf("t=200 (support end): %g, want exactly 0", got)
	}
	if got := c.SpaceAt(100, size, pb); got != 1000 {
		t.Errorf("t=100 (LastService): %g, want full plateau", got)
	}
}

// A capacity check across a handoff boundary: a full-size candidate loading
// exactly when a registered copy's decay ends must fit — their profiles
// never coexist, even for one instant.
func TestBoundaryCanFitAtHandoff(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 100)) // support [0, 200)
	// 1000 (candidate) + 1000 (copy 0, if double-counted at t=200) would
	// exceed the 1500 capacity; the correct answer is 1000 <= 1500.
	if !l.CanFitExcluding(res(1, is1, 200, 400), nil) {
		t.Error("candidate loading at the exact support end must fit")
	}
	// One second earlier the decay tail (10 bytes) still fits within the
	// 500-byte headroom...
	if !l.CanFitExcluding(res(1, is1, 199, 399), nil) {
		t.Error("candidate overlapping only the thin decay tail must fit")
	}
	// ...but overlapping the full plateau does not.
	if l.CanFitExcluding(res(1, is1, 50, 250), nil) {
		t.Error("candidate overlapping the plateau must not fit")
	}
}

// OverflowSet's support test is half-open: a copy gone at exactly the
// overflow's start instant is not a candidate victim.
func TestBoundaryOverflowSetExcludesEndedSupport(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 100))   // support [0, 200)
	l.Add(Ref{1, 0}, res(1, is1, 200, 400)) // support [200, 500)
	refs := l.OverflowSet(nil, is1, simtime.NewInterval(200, 250))
	if len(refs) != 1 || refs[0] != (Ref{1, 0}) {
		t.Errorf("OverflowSet = %v, want only the live copy", refs)
	}
	// An interval ending exactly at a support's start excludes it: the
	// abutting copy loads at the overflow's closing instant and holds no
	// space anywhere inside the overflow, so rescheduling it cannot help.
	refs = l.OverflowSet(nil, is1, simtime.NewInterval(150, 200))
	if len(refs) != 1 || refs[0] != (Ref{0, 0}) {
		t.Errorf("OverflowSet = %v, want only the overlapping copy", refs)
	}
}

// Regression for the old "widen degenerate intervals by one second" rule:
// copies that merely abut a non-degenerate overflow — loading exactly at
// its end, or fully decayed exactly at its start — are not victims, while
// a degenerate (single-instant) overflow still matches the copy whose
// support covers the instant.
func TestOverflowSetAbuttingResidency(t *testing.T) {
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	l.Add(Ref{0, 0}, res(0, is1, 0, 100))   // support [0, 200)
	l.Add(Ref{1, 0}, res(1, is1, 300, 500)) // support [300, 600)

	// Non-degenerate window between the two supports, abutting both: the
	// first copy's support ends exactly at its start (half-open, excluded)
	// and the second loads exactly at its end (holds nothing inside).
	if refs := l.OverflowSet(nil, is1, simtime.NewInterval(200, 300)); len(refs) != 0 {
		t.Errorf("OverflowSet(200,300) = %v, want none", refs)
	}
	// Degenerate instants are endpoint-inclusive on the left: the instant
	// at a support's start matches, the instant at its (half-open) end
	// does not.
	if refs := l.OverflowSet(nil, is1, simtime.NewInterval(300, 300)); len(refs) != 1 || refs[0] != (Ref{1, 0}) {
		t.Errorf("OverflowSet(300,300) = %v, want the loading copy", refs)
	}
	if refs := l.OverflowSet(nil, is1, simtime.NewInterval(200, 200)); len(refs) != 0 {
		t.Errorf("OverflowSet(200,200) = %v, want none", refs)
	}
	// A window straddling a support edge by one second does overlap.
	if refs := l.OverflowSet(nil, is1, simtime.NewInterval(199, 300)); len(refs) != 1 || refs[0] != (Ref{0, 0}) {
		t.Errorf("OverflowSet(199,300) = %v, want the decaying copy", refs)
	}
}

func TestCrossingHorizontalSegment(t *testing.T) {
	// A flat segment at the capacity level: crossing() degenerates to the
	// left endpoint; exercised through Overflows with a plateau exactly at
	// capacity followed by a jump.
	topo, cat := fixture(t)
	l := NewLedger(topo, cat)
	is1 := topology.NodeID(1)
	// Plateau of 1500 (at capacity, no overflow), then a second copy jumps
	// the total above.
	l.Add(Ref{0, 0}, res(0, is1, 0, 1000)) // 1000
	l.Add(Ref{1, 0}, res(1, is1, 0, 500))  // short? span 500 >= P=100 -> long: +1000 = 2000 > 1500
	ovs := l.Overflows(is1)
	if len(ovs) != 1 {
		t.Fatalf("overflows = %v", ovs)
	}
	if ovs[0].Interval.Start != 0 {
		t.Errorf("start = %v", ovs[0].Interval.Start)
	}
}
