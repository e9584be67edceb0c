// The per-node sweep-line event index and its memoized sweep snapshots (see
// the package comment, "Event index").

package occupancy

import (
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// event is one sweep-line breakpoint record: at time t the node's total
// profile steps up by jump bytes and its slope changes by dslope bytes/s.
type event struct {
	t      simtime.Time
	jump   float64
	dslope float64
}

// spanEvents appends to extra[ne:] the breakpoint records of a copy of a
// video (size, playback) cached over [load, last] — negated when negate is
// set, the form an excluded copy takes in a capacity sweep — and returns
// the new count. A copy that occupies nothing (zero span, or no playback)
// contributes none. The live capacity check builds its candidate's records
// with it and probe replay rebuilds a logged query's; the arithmetic is
// newEntry's, operand for operand, so an excluded copy's records come out
// bit-identical whether read back from its registered entry or rebuilt.
func spanEvents(extra *[6]event, ne int, load, last simtime.Time, size float64, playback simtime.Duration, negate bool) int {
	if playback <= 0 {
		return ne
	}
	c := schedule.Residency{Load: load, LastService: last}
	v := c.Gamma(playback) * size
	if v == 0 {
		return ne
	}
	k := v / playback.Seconds()
	evs := extra[ne : ne+3]
	evs[0] = event{t: load, jump: v}
	evs[1] = event{t: last, dslope: -k}
	evs[2] = event{t: last.Add(playback), dslope: k}
	if negate {
		for i := range evs {
			evs[i].jump, evs[i].dslope = -evs[i].jump, -evs[i].dslope
		}
	}
	return ne + 3
}

// entryEvents returns a registered entry's breakpoint records, reading the
// precomputed v and k instead of re-evaluating γ.
func entryEvents(e *entry) (evs [3]event, n int) {
	if e.v == 0 {
		return
	}
	evs[0] = event{t: e.res.Load, jump: e.v}
	evs[1] = event{t: e.res.LastService, dslope: -e.k}
	evs[2] = event{t: e.res.LastService.Add(e.playback), dslope: e.k}
	return evs, 3
}

// insertEvent places e after every record at the same time.
func insertEvent(evs []event, e event) []event {
	i := sort.Search(len(evs), func(k int) bool { return evs[k].t > e.t })
	evs = append(evs, event{})
	copy(evs[i+1:], evs[i:])
	evs[i] = e
	return evs
}

// removeEvent deletes the record equal to e. The records were computed by
// entryEvents from the stored entry, so recomputing them yields the exact
// same bits and the match is exact.
func removeEvent(evs []event, e event) []event {
	i := sort.Search(len(evs), func(k int) bool { return evs[k].t >= e.t })
	for ; i < len(evs) && evs[i].t == e.t; i++ {
		if evs[i].jump == e.jump && evs[i].dslope == e.dslope {
			return append(evs[:i], evs[i+1:]...)
		}
	}
	panic(fmt.Sprintf("occupancy: event index out of sync: no record %+v", e))
}

// nodeState is one node's slot in the ledger's dense per-node array.
type nodeState struct {
	// entries holds the residencies registered at the node.
	entries []entry
	// events is the sweep-line index over the entries' profile breakpoints,
	// maintained incrementally.
	events []event
	// ver counts profile mutations (counters only ever increase); the
	// prefix snapshot and the memoized overflow walk are keyed on it.
	ver uint64
	// pin, on a recording overlay view, is 1 + the index of the log's copy
	// of events as they stand; 0 reads as stale — the delta changed since
	// the log's last copy, or none was taken — and the next probe at the
	// node copies it. Every mutation of events clears it. It shares a word
	// with ovValid, so the slot is no larger for it.
	pin uint32
	// ovValid/ovVer/ovs memoize the node's Overflows walk at a version.
	ovValid bool
	ovVer   uint64
	ovs     []Overflow
}

// sweepPt is one stop of a node's prefix sweep: the total profile's
// post-jump value and slope at breakpoint t. Between pts[i].t and
// pts[i+1].t the profile is the line val + slope·(t − pts[i].t).
type sweepPt struct {
	t     simtime.Time
	val   float64
	slope float64
}

// nodeSnap caches the prefix sweep of one node's event index so point
// queries need a binary search plus the breakpoints actually inside their
// window, instead of integrating from the beginning of time. Rebuilt
// lazily (O(E)) on first query after a mutation; the greedy's
// query-heavy/mutation-light access pattern amortizes that to O(1) per
// query. Owned by its ledger alone, so rebuilds reuse the backing array in
// place.
type nodeSnap struct {
	builtAt uint64 // ver+1 at build time; 0 = never built
	pts     []sweepPt
}

// dirty records a mutation of the node: the version counter advances and
// the memoized overflow walk is dropped.
func (l *Ledger) dirty(node topology.NodeID) {
	st := &l.nodes[node]
	st.ver++
	st.ovValid = false
	st.ovs = nil
}

// snapshot returns the node's prefix sweep, rebuilding it if the node has
// mutated since the last build.
func (l *Ledger) snapshot(node topology.NodeID) []sweepPt {
	if l.base != nil {
		panic("occupancy: snapshot of an overlay view")
	}
	if l.snap == nil {
		l.snap = make([]nodeSnap, len(l.nodes))
	}
	sn := &l.snap[node]
	ver := l.nodes[node].ver
	if sn.builtAt == ver+1 {
		return sn.pts
	}
	evs := l.nodes[node].events
	pts := sn.pts[:0]
	val, slope := 0.0, 0.0
	var last simtime.Time
	started := false
	for i := 0; i < len(evs); {
		t := evs[i].t
		if started {
			val += slope * t.Sub(last).Seconds()
		}
		last, started = t, true
		for ; i < len(evs) && evs[i].t == t; i++ {
			val += evs[i].jump
			slope += evs[i].dslope
		}
		pts = append(pts, sweepPt{t: t, val: val, slope: slope})
	}
	sn.pts = pts
	sn.builtAt = ver + 1

	return pts
}

// addEntryEvents inserts the entry's breakpoint records, reporting whether
// the profile changed. A zero-value entry (γ=0 tentative) contributes no
// records and leaves the profile — and hence the node's version — intact;
// the greedy opens such tentatives on every request, so not invalidating
// the node's snapshot and caches for them matters.
func (l *Ledger) addEntryEvents(node topology.NodeID, e *entry) bool {
	evs, n := entryEvents(e)
	if n == 0 {
		return false
	}
	st := &l.nodes[node]
	st.pin = 0 // a probe log's copy of the delta is stale from here on
	for i := 0; i < n; i++ {
		st.events = insertEvent(st.events, evs[i])
	}
	return true
}

// removeEntryEvents deletes the entry's breakpoint records, recomputed
// bit-identically from the stored entry. Reports whether the profile
// changed.
func (l *Ledger) removeEntryEvents(node topology.NodeID, e *entry) bool {
	evs, n := entryEvents(e)
	if n == 0 {
		return false
	}
	st := &l.nodes[node]
	st.pin = 0
	for i := 0; i < n; i++ {
		st.events = removeEvent(st.events, evs[i])
	}
	return true
}
