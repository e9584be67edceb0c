package occupancy

import (
	"cmp"
	"slices"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// refLedger is the brute-force reference the ledger's event index and its
// overlay views are checked against: it holds the registered residencies
// and nothing derived from them, and answers every query by re-summing
// Eq. 6 over them at every profile breakpoint — O(E²) per query, with no
// index, snapshot, memo or view to get wrong.
type refLedger struct {
	topo    *topology.Topology
	catalog *media.Catalog
	entries [][]refEntry // per node, in registration order
}

type refEntry struct {
	ref Ref
	res schedule.Residency
}

func newRefLedger(topo *topology.Topology, catalog *media.Catalog) *refLedger {
	return &refLedger{topo: topo, catalog: catalog, entries: make([][]refEntry, topo.NumNodes())}
}

func (r *refLedger) Add(ref Ref, c schedule.Residency) {
	r.entries[c.Loc] = append(r.entries[c.Loc], refEntry{ref, c})
}

// Update replaces the residency registered under ref, moving it to the new
// residency's node, and reports whether the ref was found.
func (r *refLedger) Update(ref Ref, c schedule.Residency) bool {
	for n, es := range r.entries {
		i := slices.IndexFunc(es, func(e refEntry) bool { return e.ref == ref })
		switch {
		case i < 0:
			continue
		case topology.NodeID(n) == c.Loc:
			es[i].res = c
		default:
			r.entries[n] = slices.Delete(es, i, i+1)
			r.Add(ref, c)
		}
		return true
	}
	return false
}

func (r *refLedger) RemoveVideo(vid media.VideoID) {
	for n := range r.entries {
		r.entries[n] = slices.DeleteFunc(r.entries[n], func(e refEntry) bool { return e.ref.Video == vid })
	}
}

// without returns a copy of the ledger holding no residency of the video:
// what an overlay view of the video answers like.
func (r *refLedger) without(vid media.VideoID) *refLedger {
	out := newRefLedger(r.topo, r.catalog)
	for n, es := range r.entries {
		for _, e := range es {
			if e.ref.Video != vid {
				out.entries[n] = append(out.entries[n], e)
			}
		}
	}
	return out
}

// space is one residency's occupancy at t (Eq. 6).
func (r *refLedger) space(c schedule.Residency, t simtime.Time) float64 {
	v := r.catalog.Video(c.Video)
	return c.SpaceAt(t, v.Size.Float(), v.Playback)
}

func (r *refLedger) SpaceAt(node topology.NodeID, t simtime.Time) float64 {
	total := 0.0
	for _, e := range r.entries[node] {
		total += r.space(e.res, t)
	}
	return total
}

// jumpAt is the upward jump of the node's occupancy at t: a copy reserves
// its peak space the moment loading starts.
func (r *refLedger) jumpAt(node topology.NodeID, t simtime.Time) float64 {
	total := 0.0
	for _, e := range r.entries[node] {
		if e.res.Load == t {
			total += r.space(e.res, t)
		}
	}
	return total
}

// breakpoints returns the sorted distinct profile breakpoints of the node.
func (r *refLedger) breakpoints(node topology.NodeID) []simtime.Time {
	var pts []simtime.Time
	for _, e := range r.entries[node] {
		end := e.res.Support(r.catalog.Video(e.res.Video).Playback).End
		pts = append(pts, e.res.Load, e.res.LastService, end)
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

func (r *refLedger) Peak(node topology.NodeID) (float64, simtime.Time) {
	best, when := 0.0, simtime.Time(0)
	for _, t := range r.breakpoints(node) {
		if s := r.SpaceAt(node, t); s > best {
			best, when = s, t
		}
	}
	return best, when
}

// Overflows walks the pieces between breakpoints, each from its post-jump
// value at the left end to its left limit at the right end.
func (r *refLedger) Overflows(node topology.NodeID) []Overflow {
	if r.topo.Node(node).Kind == topology.KindWarehouse {
		return nil
	}
	capacity := r.topo.Node(node).Capacity.Float()
	over := func(s float64) bool { return s > capacity+eps }
	var out []Overflow
	open := false
	var start simtime.Time
	peak := 0.0
	closeAt := func(end simtime.Time) {
		out = append(out, Overflow{Node: node, Interval: simtime.Interval{Start: start, End: end}, Peak: peak, Excess: peak - capacity})
		open, peak = false, 0
	}
	pts := r.breakpoints(node)
	for i, a := range pts {
		sa := r.SpaceAt(node, a)
		b, sb := a, sa
		last := i+1 == len(pts)
		if !last {
			b = pts[i+1]
			sb = r.SpaceAt(node, b) - r.jumpAt(node, b)
		}
		if !open {
			switch {
			case over(sa):
				open, start, peak = true, a, sa
			case !last && over(sb):
				open, start, peak = true, crossing(a, sa, b, sb, capacity), sb
			}
		}
		if open {
			peak = max(peak, sa, sb)
			switch {
			case last:
				closeAt(a)
			case !over(sb):
				closeAt(crossing(a, sa, b, sb, capacity))
			}
		}
	}
	return mergeOverflows(out)
}

// OverflowSet returns, in (video, index) order, the residencies at the node
// holding space during the closed interval: a support [s, e) shares time of
// positive measure with it, or covers it when it is an instant.
func (r *refLedger) OverflowSet(node topology.NodeID, iv simtime.Interval) []Ref {
	var out []Ref
	for _, e := range r.entries[node] {
		sup := e.res.Support(r.catalog.Video(e.res.Video).Playback)
		if (iv.Start == iv.End && sup.Start <= iv.Start && iv.Start < sup.End) ||
			(iv.Start < iv.End && sup.Start < iv.End && iv.Start < sup.End) {
			out = append(out, e.ref)
		}
	}
	slices.SortFunc(out, func(a, b Ref) int {
		return cmp.Or(cmp.Compare(a.Video, b.Video), cmp.Compare(a.Index, b.Index))
	})
	return out
}

// CanFitExcluding tests the candidate's breakpoints and every entry's that
// fall inside its support, re-summing the node's total at each.
func (r *refLedger) CanFitExcluding(c schedule.Residency, exclude *Ref) bool {
	node := c.Loc
	if r.topo.Node(node).Kind == topology.KindWarehouse {
		return true
	}
	capacity := r.topo.Node(node).Capacity.Float()
	sup := c.Support(r.catalog.Video(c.Video).Playback)
	if sup.Empty() {
		return true
	}
	fitsAt := func(t simtime.Time) bool {
		if t < sup.Start || t > sup.End {
			return true
		}
		have := r.SpaceAt(node, t)
		if exclude != nil {
			if i := slices.IndexFunc(r.entries[node], func(e refEntry) bool { return e.ref == *exclude }); i >= 0 {
				have -= r.space(r.entries[node][i].res, t)
			}
		}
		return have+r.space(c, t) <= capacity+eps
	}
	if !fitsAt(c.Load) || !fitsAt(c.LastService) || !fitsAt(sup.End) {
		return false
	}
	for _, t := range r.breakpoints(node) {
		if !fitsAt(t) {
			return false
		}
	}
	return true
}
