// The reference paths: the original per-entry re-scan a naiveMode ledger
// answers with, kept as what the property and byte-identity tests compare
// the index against.

package occupancy

import (
	"sort"

	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// breakpoints returns the sorted distinct profile breakpoints of the node's
// entries, optionally restricted to [window.Start, window.End] (endpoints
// included so linear pieces at the window edges are evaluated).
func (l *Ledger) breakpoints(node topology.NodeID, window *simtime.Interval) []simtime.Time {
	var pts []simtime.Time
	add := func(t simtime.Time) {
		if window != nil && (t < window.Start || t > window.End) {
			return
		}
		pts = append(pts, t)
	}
	es := l.nodes[node].entries
	for i := range es {
		add(es[i].res.Load)
		add(es[i].res.LastService)
		add(es[i].res.LastService.Add(es[i].playback))
	}
	if window != nil {
		pts = append(pts, window.Start, window.End)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:0]
	var last simtime.Time
	for i, t := range pts {
		if i == 0 || t != last {
			out = append(out, t)
			last = t
		}
	}
	return out
}

// jumpAt returns the instantaneous upward jump of the node's occupancy at
// time t: copies reserve their peak space the moment loading starts, so the
// profile jumps by the copy's value exactly at its Load breakpoint. Used by
// the reference overflow walk.
func (l *Ledger) jumpAt(node topology.NodeID, t simtime.Time) float64 {
	total := 0.0
	es := l.nodes[node].entries
	for i := range es {
		if es[i].res.Load == t {
			total += es[i].res.SpaceAt(t, es[i].size, es[i].playback)
		}
	}
	return total
}

// overflowsNaive is the reference walk: per-breakpoint re-summation of
// Eq. 6 over every entry.
func (l *Ledger) overflowsNaive(node topology.NodeID) []Overflow {
	capacity := l.topo.Node(node).Capacity.Float()
	pts := l.breakpoints(node, nil)
	if len(pts) == 0 {
		return nil
	}
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

	for i := 0; i+1 <= len(pts); i++ {
		a := pts[i]
		sa := l.SpaceAt(node, a) // post-jump value at a
		var b simtime.Time
		var sb float64 // left limit approaching b
		last := i+1 == len(pts)
		if last {
			b, sb = a, sa
		} else {
			b = pts[i+1]
			sb = l.SpaceAt(node, b) - l.jumpAt(node, b)
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
		closeAt(pts[len(pts)-1])
	}
	return mergeOverflows(out)
}

// canFitNaive is the reference fit check: per-breakpoint re-summation of
// every entry's profile.
func (l *Ledger) canFitNaive(c schedule.Residency, exclude *Ref) bool {
	node := c.Loc
	v := l.catalog.Video(c.Video)
	capacity := l.topo.Node(node).Capacity.Float()
	size, playback := v.Size.Float(), v.Playback
	sup := c.Support(playback)
	if sup.Empty() {
		return true
	}
	fitsAt := func(t simtime.Time) bool {
		if t < sup.Start || t > sup.End {
			return true
		}
		have := l.SpaceAt(node, t)
		if exclude != nil {
			es := l.nodes[node].entries
			for i := range es {
				if es[i].ref == *exclude {
					have -= es[i].res.SpaceAt(t, es[i].size, es[i].playback)
					break
				}
			}
		}
		return have+c.SpaceAt(t, size, playback) <= capacity+eps
	}
	if !fitsAt(c.Load) || !fitsAt(c.LastService) || !fitsAt(c.LastService.Add(playback)) {
		return false
	}
	es := l.nodes[node].entries
	for i := range es {
		if !fitsAt(es[i].res.Load) || !fitsAt(es[i].res.LastService) || !fitsAt(es[i].res.LastService.Add(es[i].playback)) {
			return false
		}
	}
	return true
}
