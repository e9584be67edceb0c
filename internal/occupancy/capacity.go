// Capacity queries: overflow detection, the can-it-fit sweep and the banned
// pair.

package occupancy

import (
	"cmp"
	"math"
	"slices"

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
// only re-walks the nodes the last committed reschedule touched. Callers
// must treat the returned slice as read-only.
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
	ovs := l.walkOverflows(node)
	st.ovValid, st.ovVer, st.ovs = true, st.ver, ovs
	return ovs
}

// walkOverflows is Overflows' walk over the node's prefix sweep.
func (l *Ledger) walkOverflows(node topology.NodeID) []Overflow {
	pts := l.snapshot(node)
	if len(pts) == 0 {
		return nil
	}
	capacity := l.caps[node]
	over := func(s float64) bool { return s > capacity+eps }

	var out []Overflow
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

	for i := range pts {
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
func (l *Ledger) AllOverflows() []Overflow {
	var out []Overflow
	for _, node := range l.topo.Storages() {
		out = append(out, l.Overflows(node)...)
	}
	return out
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
// (sweepFits) merges the node's event index with the candidate's (and the
// negated excluded entry's) breakpoint records and tests the running total
// at every breakpoint inside the candidate's support — O(E) per call.
//
// On an overlay view with a probe log attached (Record) every query that
// reaches the sweep — the only point where the base's state enters an
// answer — is logged with its answer.
func (l *Ledger) CanFitExcluding(c schedule.Residency, exclude *Ref) bool {
	node := c.Loc
	if l.isWh[node] {
		return true
	}
	v := l.catalog.Video(c.Video)
	size, playback := v.Size.Float(), v.Playback
	sup := c.Support(playback)
	if sup.Empty() {
		// Zero-span tentative cache: peaks at γ=0, occupies nothing.
		return true
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
	ne := spanEvents(&extra, 0, c.Load, c.LastService, size, playback, false)
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
	fits := sweepFits(basel.snapshot(node), ovs, &extra, ne, sup, l.caps[node])
	if l.log != nil {
		l.log.record(l, c, excluded, fits)
	}
	return fits
}

// sweepFits is the capacity check's core, shared by the live query
// (CanFitExcluding) and by the replay of a logged one (ProbeLog.Replay), so
// a replayed probe runs the same arithmetic on the same operands as asking
// the query afresh. pts is the base node's prefix sweep, ovs an overlay
// view's per-node delta (nil on a plain ledger), extra[:ne] the candidate's
// breakpoint records plus the negated excluded entry's, sup the candidate's
// support.
func sweepFits(pts []sweepPt, ovs []event, extra *[6]event, ne int, sup simtime.Interval, capacity float64) bool {
	// Manual binary search for the last breakpoint at or before sup.Start
	// (sort.Search's indirect predicate call is measurable at this call
	// rate).
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].t > sup.Start {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bk := lo - 1

	for i := 1; i < ne; i++ {
		for j := i; j > 0 && extra[j].t < extra[j-1].t; j-- {
			extra[j], extra[j-1] = extra[j-1], extra[j]
		}
	}

	// Walk the check times — sup.Start, every breakpoint (node, overlay or
	// extra) inside the support, then sup.End — evaluating the combined
	// profile as base (from the prefix snapshot, entered by binary search)
	// plus deltas: the ≤6 extra records and, on an overlay view, the
	// view's own per-node delta records. The combined profile is piecewise
	// linear, and every local maximum inside the support sits at a
	// post-jump breakpoint value or at the support's endpoints: ascending
	// segments exist only inside a negated copy's decay window and always
	// end at an evaluated breakpoint, and every negated Load jump
	// coincides with the base's positive one, so the merged profile never
	// jumps downward (left limits equal evaluated post-jump values).
	bval, bslope := 0.0, 0.0
	var bt simtime.Time
	bactive := bk >= 0
	if bactive {
		bval, bslope, bt = pts[bk].val, pts[bk].slope, pts[bk].t
	}
	bi := bk + 1
	dj := 0
	dval, dslope := 0.0, 0.0
	var dlast simtime.Time
	dstarted := false
	oj := 0
	oval, oslope := 0.0, 0.0
	var olast simtime.Time
	ostarted := false
	for T := sup.Start; ; {
		for bi < len(pts) && pts[bi].t <= T {
			bval, bslope, bt = pts[bi].val, pts[bi].slope, pts[bi].t
			bactive = true
			bi++
		}
		for dj < ne && extra[dj].t <= T {
			if dstarted {
				dval += dslope * extra[dj].t.Sub(dlast).Seconds()
			}
			dlast, dstarted = extra[dj].t, true
			dval += extra[dj].jump
			dslope += extra[dj].dslope
			dj++
		}
		for oj < len(ovs) && ovs[oj].t <= T {
			if ostarted {
				oval += oslope * ovs[oj].t.Sub(olast).Seconds()
			}
			olast, ostarted = ovs[oj].t, true
			oval += ovs[oj].jump
			oslope += ovs[oj].dslope
			oj++
		}
		total := dval
		if dstarted && T > dlast {
			total += dslope * T.Sub(dlast).Seconds()
		}
		if ostarted {
			total += oval
			if T > olast {
				total += oslope * T.Sub(olast).Seconds()
			}
		}
		if bactive {
			total += bval + bslope*T.Sub(bt).Seconds()
		}
		if total > capacity+eps {
			return false
		}
		if T == sup.End {
			return true
		}
		next := sup.End
		if bi < len(pts) && pts[bi].t < next {
			next = pts[bi].t
		}
		if dj < ne && extra[dj].t < next {
			next = extra[dj].t
		}
		if oj < len(ovs) && ovs[oj].t < next {
			next = ovs[oj].t
		}
		T = next
	}
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
