// Capacity queries: overflow detection, the can-it-fit sweep and the banned
// pair.

package occupancy

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// Overflows returns the maximal intervals during which the node's occupancy
// strictly exceeds its capacity, in chronological order. The warehouse
// never overflows (its capacity is unbounded by definition).
//
// Between breakpoints the total profile is linear; at a breakpoint it may
// jump upward (a copy's space is reserved instantaneously at Load). The
// walk therefore treats each piece [a, b) as the segment from the post-jump
// value at a to the left limit at b, which is exact.
//
// The walk is memoized per node: a repeat call at an unchanged mutation
// version returns the previous result, so SORP's per-iteration AllOverflows
// only re-walks the nodes the last committed reschedule touched, and those
// only from where the mutations began (rewalkFrom). Callers must treat the
// returned slice as read-only.
func (l *Ledger) Overflows(node topology.NodeID) []Overflow {
	if l.base != nil {
		panic("occupancy: Overflows on an overlay view")
	}
	if l.topo.Node(node).Kind == topology.KindWarehouse {
		return nil
	}
	st := &l.nodes[node]
	if st.ovValid && st.ovVer == st.ver {
		return st.ovs
	}
	pts := l.snapshot(node)
	sn := &l.snap[node]
	var ovs []Overflow
	if st.ovValid {
		// The walk appends to a copy: a caller may still hold the old one.
		k, keep := rewalkFrom(pts, st.ovs, sn.ovFrom)
		ovs = l.walkOverflows(node, pts, k, append(make([]Overflow, 0, len(st.ovs)), st.ovs[:keep]...))
	} else {
		ovs = l.walkOverflows(node, pts, 0, nil)
	}
	st.ovValid, st.ovVer, st.ovs, sn.ovFrom = true, st.ver, ovs, never
	return ovs
}

// rewalkFrom returns where a walk of the node's new sweep pts may resume when
// every record before from is as it was at the walk that found ovs: the first
// segment to walk, and how many of ovs stand as they are ahead of it. The
// segments before the stop preceding from are unchanged, and so is the walk
// over them; it resumes at that stop unless an overflow is open across it,
// and then at the segment where that overflow opened, with the walk closed —
// the segment holding its start, since an overflow opens inside its segment.
// The overflows kept are those ending before the resumed walk begins, which
// the walk's merge would not reach back into differently.
func rewalkFrom(pts []sweepPt, ovs []Overflow, from simtime.Time) (k, keep int) {
	i0 := sort.Search(len(pts), func(i int) bool { return pts[i].t >= from })
	if i0 == 0 {
		return 0, 0
	}
	at := pts[i0-1].t
	keep = sort.Search(len(ovs), func(i int) bool { return ovs[i].Interval.End >= at })
	if keep == len(ovs) || ovs[keep].Interval.Start > at {
		return i0 - 1, keep
	}
	start := ovs[keep].Interval.Start
	if k = sort.Search(i0, func(i int) bool { return pts[i].t > start }) - 1; k < 0 {
		return 0, 0 // not an overflow this sweep opened: walk it all
	}
	return k, keep
}

// walkOverflows is Overflows' walk over the node's prefix sweep pts from
// segment k on, the walk closed there, appending to out the overflows of the
// segments before k; it returns them all, merged.
func (l *Ledger) walkOverflows(node topology.NodeID, pts []sweepPt, k int, out []Overflow) []Overflow {
	if len(pts) == 0 {
		return nil
	}
	capacity := l.caps[node]
	over := func(s float64) bool { return s > capacity+eps }

	open := false
	var start simtime.Time
	peak := 0.0
	closeAt := func(end simtime.Time) {
		out = append(out, Overflow{
			Node:     node,
			Interval: simtime.Interval{Start: start, End: end},
			Peak:     peak,
			Excess:   peak - capacity,
		})
		open = false
		peak = 0
	}

	for i := k; i < len(pts); i++ {
		a, sa := pts[i].t, pts[i].val
		var b simtime.Time
		var sb float64 // left limit approaching b
		last := i+1 == len(pts)
		if last {
			// After the final breakpoint every profile is zero.
			b, sb = a, sa
		} else {
			b = pts[i+1].t
			sb = pts[i].val + pts[i].slope*b.Sub(a).Seconds()
		}
		if !open {
			switch {
			case over(sa):
				open, start, peak = true, a, sa
			case !last && over(sb):
				// Segment ramps above capacity strictly inside (a, b).
				open, start, peak = true, crossing(a, sa, b, sb, capacity), sb
			}
		}
		if open {
			if sa > peak {
				peak = sa
			}
			if sb > peak {
				peak = sb
			}
			switch {
			case last:
				closeAt(a)
			case !over(sb):
				closeAt(crossing(a, sa, b, sb, capacity))
			}
		}
	}
	if open {
		closeAt(pts[len(pts)-1].t)
	}
	return mergeOverflows(out)
}

// crossing solves for the time where the line through (t0,s0)-(t1,s1)
// crosses the capacity level, rounded to the enclosing integer second so
// overflow intervals are conservative (never narrower than reality).
func crossing(t0 simtime.Time, s0 float64, t1 simtime.Time, s1 float64, capacity float64) simtime.Time {
	if s1 == s0 {
		return t0
	}
	frac := (capacity - s0) / (s1 - s0)
	x := float64(t0) + frac*float64(t1-t0)
	if s1 > s0 {
		return simtime.Time(math.Floor(x)) // ascending: start earlier
	}
	return simtime.Time(math.Ceil(x)) // descending: end later
}

func mergeOverflows(ovs []Overflow) []Overflow {
	if len(ovs) <= 1 {
		return ovs
	}
	out := ovs[:1]
	for _, o := range ovs[1:] {
		last := &out[len(out)-1]
		if o.Interval.Start <= last.Interval.End {
			if o.Interval.End > last.Interval.End {
				last.Interval.End = o.Interval.End
			}
			if o.Peak > last.Peak {
				last.Peak = o.Peak
				last.Excess = o.Excess
			}
		} else {
			out = append(out, o)
		}
	}
	return out
}

// AllOverflows returns every overflow at every storage, ordered by node ID
// then time.
func (l *Ledger) AllOverflows() []Overflow { return l.AppendOverflows(nil) }

// AppendOverflows appends AllOverflows' list to dst and returns the extended
// slice; a caller that asks at every iteration passes the last list back as
// dst[:0], so the list is allocated once per run, not once per iteration.
func (l *Ledger) AppendOverflows(dst []Overflow) []Overflow {
	for _, node := range l.topo.Storages() {
		dst = append(dst, l.Overflows(node)...)
	}
	return dst
}

// OverflowSet appends to dst the references of the residencies at the node
// whose space profile overlaps the interval — the candidate victims for the
// overflow OF_{Δt, node} (paper §4.1) — in (video, index) order, and
// returns the extended slice; a caller that keeps the result's storage
// across calls passes it back as dst[:0].
//
// The overlap test is exact: the overflow interval is closed (it may be a
// single instant) and a residency's support is half-open, so a copy whose
// support merely abuts the interval — loading exactly at its end, or
// fully decayed exactly at its start — holds no space inside the overflow
// and is not a candidate victim.
func (l *Ledger) OverflowSet(dst []Ref, node topology.NodeID, iv simtime.Interval) []Ref {
	if l.base != nil {
		panic("occupancy: OverflowSet on an overlay view")
	}
	l.mustRegister("OverflowSet")
	start := len(dst)
	es := l.nodes[node].entries
	for i := range es {
		sup := es[i].res.Support(es[i].playback)
		if overlapsOverflow(sup, iv) {
			dst = append(dst, es[i].ref)
		}
	}
	slices.SortFunc(dst[start:], func(a, b Ref) int {
		if a.Video != b.Video {
			return cmp.Compare(a.Video, b.Video)
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return dst
}

// overlapsOverflow reports whether the half-open support [sup.Start,
// sup.End) shares time of positive measure with the closed overflow
// interval [iv.Start, iv.End] — or, for a degenerate (instant) overflow,
// whether the support covers the instant itself.
func overlapsOverflow(sup, iv simtime.Interval) bool {
	if iv.Start == iv.End {
		return sup.Start <= iv.Start && iv.Start < sup.End
	}
	return sup.Start < iv.End && iv.Start < sup.End
}

// CanFitExcluding reports whether adding the candidate residency to its
// node would keep total occupancy within capacity at all times, with one
// registered residency disregarded: the check for extending an existing
// copy passes the copy's own ref so its pre-extension profile is not double
// counted, and a fresh candidate passes nil. The check is exact: the
// combined profile is piecewise linear, so it suffices to test every
// breakpoint inside the candidate's support.
//
// This sits on the greedy's innermost path: a single chronological sweep
// (sweepCheck) merges the node's event index with the candidate's (and the
// negated excluded entry's) breakpoint records and tests the running total
// at every breakpoint inside the candidate's support — O(E) per call.
//
// On an overlay view with a probe log attached (Record) every query that
// reaches the sweep — the only point where the base's state enters an
// answer — is logged with its answer.
func (l *Ledger) CanFitExcluding(c schedule.Residency, exclude *Ref) bool {
	fits, _ := l.FitExcluding(c, exclude)
	return fits
}

// FitExcluding is CanFitExcluding that also says how a refusal was given:
// firm is set when the total at the check time that refused the candidate
// exceeds the capacity by more than the margin δ (firmRefusal). A firm
// refusal stands for every later question the rejective greedy could ask of
// the same copy: the greedy only ever asks it again with a later end, on a
// view that has only grown, and δ exceeds twice the sweep's rounding error
// (DESIGN.md §5, "A refusal holds for the rest of its greedy"). A probe log
// keeps firm refusals in groups of their own, and its replay holds one only
// while it is still firm (ProbeLog.Replay).
func (l *Ledger) FitExcluding(c schedule.Residency, exclude *Ref) (fits, firm bool) {
	node := c.Loc
	if l.isWh[node] {
		return true, false
	}
	v := l.catalog.Video(c.Video)
	size, playback := v.Size.Float(), v.Playback
	sup := c.Support(playback)
	if sup.Empty() {
		// Zero-span tentative cache: peaks at γ=0, occupies nothing.
		return true, false
	}
	basel := l
	var ovs []event
	if l.base != nil {
		basel = l.base
		ovs = l.nodes[node].events
	}

	// Up to six extra sweep records: the candidate's own breakpoints plus
	// the excluded entry's, negated. A fixed array, filled in place, keeps
	// this allocation-free (the call sits on the greedy's innermost loop).
	var extra [6]event
	peak := spanValue(c.Load, c.LastService, size, playback)
	ne := peakEvents(&extra, 0, c.Load, c.LastService, peak, playback, false)
	var excluded *entry
	if exclude != nil {
		es := l.nodes[node].entries
		for i := range es {
			if es[i].ref == *exclude {
				excluded = &es[i]
				eev, m := entryEvents(excluded)
				for k := 0; k < m; k++ {
					extra[ne] = event{t: eev[k].t, jump: -eev[k].jump, dslope: -eev[k].dslope}
					ne++
				}
				break
			}
		}
	}
	capacity := l.caps[node]
	fits, d, total := sweepCheck(basel.snapshot(node), ovs, &extra, ne, sup, capacity)
	firm = !fits && firmRefusal(total, capacity)
	if l.log != nil {
		l.log.record(l, c, peak, excluded, fits, firm, d)
	}
	return fits, firm
}

// overCapacity is the capacity check at one check time: whether the combined
// profile there, total, exceeds the capacity.
func overCapacity(total, capacity float64) bool { return total > capacity+eps }

// firmRefusal reports whether a total that refused a candidate exceeds the
// capacity by more than the margin δ = capacity·2⁻²⁰. A check's rounding
// error is local — the base's stops are stored, so its running sum's error
// is the same in every sweep that reads them — and δ exceeds twice it many
// times over (DESIGN.md §5): a refusal past δ is a refusal in real
// arithmetic with room to spare, and a later question about the same copy,
// whose real total is no smaller, is refused by its own sweep too.
func firmRefusal(total, capacity float64) bool {
	return total > capacity+eps+capacity*0x1p-20
}

// sweepFits is sweepCheck's answer and d alone, for the replay of a logged
// "yes", which needs neither the margin nor the total.
func sweepFits(pts []sweepPt, ovs []event, extra *[6]event, ne int, sup simtime.Interval, capacity float64) (fits bool, d float64) {
	fits, d, _ = sweepCheck(pts, ovs, extra, ne, sup, capacity)
	return fits, d
}

// sweepCheck is the capacity check's core, shared by the live query
// (FitExcluding) and by the replay of a logged one (ProbeLog.Replay), so
// a replayed probe runs the same arithmetic on the same operands as asking
// the query afresh. pts is the base node's prefix sweep, ovs an overlay
// view's per-node delta (nil on a plain ledger), extra[:ne] the candidate's
// breakpoint records plus the negated excluded entry's, sup the candidate's
// support. It returns the answer; d, the extra records' part of the profile
// at sup.Start (runSum.at), of which a probe log keeps the least per group
// of "no"s; and for a "no" the total at the check time that refused it,
// which decides whether the refusal is firm (firmRefusal).
//
// The check runs in three steps: enter the sweep at sup.Start
// (sweep.enter), check the profile there (sweep.total), walk the rest
// (sweep.walk). A replay that asks many candidates of one start at one
// storage against one delta enters once and checks each at the first
// instant through the same total, walking on only from there.
func sweepCheck(pts []sweepPt, ovs []event, extra *[6]event, ne int, sup simtime.Interval, capacity float64) (fits bool, d, total float64) {
	evs, x := firstRecords(extra, ne, sup.Start)
	var s sweep
	s.enter(pts, ovs, sup.Start)
	d = x.at(sup.Start)
	if total = s.total(d, sup.Start); overCapacity(total, capacity) {
		return false, d, total
	}
	fits, total = s.walk(x, evs, sup, capacity)
	return fits, d, total
}

// The sweep walks the check times — sup.Start, every breakpoint (node,
// overlay or extra) inside the support, then sup.End — evaluating the
// combined profile as base (from the prefix snapshot, entered by binary
// search) plus deltas: the ≤6 extra records and, on an overlay view, the
// view's own per-node delta records. The combined profile is piecewise
// linear, and every local maximum inside the support sits at a post-jump
// breakpoint value or at the support's endpoints: ascending segments exist
// only inside a negated copy's decay window and always end at an evaluated
// breakpoint, and every negated Load jump coincides with the base's positive
// one, so the merged profile never jumps downward (left limits equal
// evaluated post-jump values). Its state is passed and returned by value, in
// structs of at most four fields, which the compiler keeps in registers.

// firstRecords puts extra[:ne] in time order and takes in its records up to
// the sweep's first check time T: the extra records' part of the sweep there.
func firstRecords(extra *[6]event, ne int, T simtime.Time) ([]event, runSum) {
	for i := 1; i < ne; i++ {
		for j := i; j > 0 && extra[j].t < extra[j-1].t; j-- {
			extra[j], extra[j-1] = extra[j-1], extra[j]
		}
	}
	evs := extra[:ne]
	return evs, runSum{}.advance(evs, T)
}

// runSum is the sweep's running sum over one chronological list of
// breakpoint records — the extra records, or an overlay view's delta: the
// profile's value at the last record taken in and its slope after it. j > 0
// once a record was taken in.
type runSum struct {
	j          int // the next record to take in
	val, slope float64
	last       simtime.Time
}

// advance returns r with every record of evs at or before T taken in.
func (r runSum) advance(evs []event, T simtime.Time) runSum {
	for r.j < len(evs) && evs[r.j].t <= T {
		if r.j > 0 {
			r.val += r.slope * evs[r.j].t.Sub(r.last).Seconds()
		}
		r.last = evs[r.j].t
		r.val += evs[r.j].jump
		r.slope += evs[r.j].dslope
		r.j++
	}
	return r
}

// at is the list's part of the profile at T, once advanced to T.
func (r runSum) at(T simtime.Time) float64 {
	v := r.val
	if r.j > 0 && T > r.last {
		v += r.slope * T.Sub(r.last).Seconds()
	}
	return v
}

// sweep is a capacity sweep's position at one node: in the base's prefix
// sweep pts, bi is the next stop to take in and b the last one taken in
// (bi > 0), and o the position in the view's delta ovs.
type sweep struct {
	pts []sweepPt
	bi  int
	b   sweepPt
	ovs []event
	o   runSum
}

// enter positions the sweep at T: the last stop of pts at or before T,
// found by binary search, and the records of ovs up to T.
func (s *sweep) enter(pts []sweepPt, ovs []event, T simtime.Time) {
	// Manual binary search (sort.Search's indirect predicate call is
	// measurable at this call rate).
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].t > T {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.pts, s.bi, s.ovs, s.o = pts, lo, ovs, runSum{}.advance(ovs, T)
	s.b = sweepPt{}
	if lo > 0 {
		s.b = pts[lo-1]
	}
}

// total is the combined profile at T, where the sweep stands: d, the extra
// records' part (runSum.at), plus the delta's and the base's (totalAt).
func (s *sweep) total(d float64, T simtime.Time) float64 {
	return totalAt(d, s.o, s.b, s.bi > 0, T)
}

// over is the check at T, where the sweep stands: whether the combined
// profile there exceeds the capacity.
func (s *sweep) over(d float64, T simtime.Time, capacity float64) bool {
	return overCapacity(s.total(d, T), capacity)
}

// totalAt adds the delta's part o and the base's b, if active, to d in turn.
// Rounded addition is monotone, so a larger d gives a total no smaller: a d
// that overflows, or overflows firmly, here makes every larger one do so.
func totalAt(d float64, o runSum, b sweepPt, bactive bool, T simtime.Time) float64 {
	total := d
	if o.j > 0 {
		total += o.val
		if T > o.last {
			total += o.slope * T.Sub(o.last).Seconds()
		}
	}
	if bactive {
		total += b.val + b.slope*T.Sub(b.t).Seconds()
	}
	return total
}

// walk is the sweep after its first check: from sup.Start, where it stands
// with x taken in up to there, to sup.End, checking at every breakpoint. It
// returns whether the candidate fits and, when it does not, the total at the
// check time that refused it.
func (s *sweep) walk(x runSum, extra []event, sup simtime.Interval, capacity float64) (fits bool, total float64) {
	pts, bi, b, ovs, o := s.pts, s.bi, s.b, s.ovs, s.o
	for T := sup.Start; T != sup.End; {
		next := sup.End
		if bi < len(pts) && pts[bi].t < next {
			next = pts[bi].t
		}
		if x.j < len(extra) && extra[x.j].t < next {
			next = extra[x.j].t
		}
		if o.j < len(ovs) && ovs[o.j].t < next {
			next = ovs[o.j].t
		}
		T = next
		for bi < len(pts) && pts[bi].t <= T {
			b = pts[bi]
			bi++
		}
		x = x.advance(extra, T)
		o = o.advance(ovs, T)
		if total := totalAt(x.at(T), o, b, bi > 0, T); overCapacity(total, capacity) {
			return false, total
		}
	}
	return true, 0
}

// Banned describes a forbidden (interval, storage) pair the rejective
// greedy must respect when rescheduling a victim: the victim may not hold a
// copy at Node whose profile overlaps Interval (paper §4.2).
type Banned struct {
	Node     topology.NodeID
	Interval simtime.Interval
}

// Violates reports whether a candidate residency's space profile overlaps
// the banned window at the banned node.
func (bn Banned) Violates(c schedule.Residency, playback simtime.Duration) bool {
	if c.Loc != bn.Node {
		return false
	}
	sup := c.Support(playback)
	// Endpoint-inclusive: an overflow interval may be a single instant.
	return sup.Start <= bn.Interval.End && bn.Interval.Start < sup.End
}

// Violates is bn.Violates asked through the ledger, the way the rejective
// greedy asks it. On an overlay view with a probe log attached (Record) an
// answer at the banned node — the only ones the window enters — narrows the
// log's box of windows that would have answered alike (ProbeLog.Covers).
func (l *Ledger) Violates(bn Banned, c schedule.Residency, playback simtime.Duration) bool {
	violates := bn.Violates(c, playback)
	if g := l.log; g != nil && c.Loc == bn.Node {
		if !g.box.contains(bn.Interval) {
			g.broken = true // a second window, which the earlier answers do not cover
		}
		g.box.narrow(bn.Interval, c.Support(playback), violates)
	}
	return violates
}
