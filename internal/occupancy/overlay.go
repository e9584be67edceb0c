// Copies and views of a ledger: Clone, the copy-on-write overlay a candidate
// reschedule runs on, and the two ways its result reaches the base.

package occupancy

import (
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/topology"
)

// Clone returns an independent deep copy of the ledger: per-node entry and
// event slices are copied, version counters and memoized overflow walks
// carry over, prefix snapshots do not. The scheduler itself never clones —
// it evaluates candidates on overlay views and commits the winner in place
// (OverlayWithout, Commit); Clone backs the reference path's OverlayWithout
// and the tests that compare against it.
func (l *Ledger) Clone() *Ledger {
	if l.base != nil {
		panic("occupancy: Clone of an overlay view")
	}
	out := &Ledger{
		topo:     l.topo,
		catalog:  l.catalog,
		nodes:    make([]nodeState, len(l.nodes)),
		caps:     l.caps,
		isWh:     l.isWh,
		vidNodes: make(map[media.VideoID][]topology.NodeID, len(l.vidNodes)),
		naive:    l.naive,
	}
	for vid, ns := range l.vidNodes {
		out.vidNodes[vid] = append([]topology.NodeID(nil), ns...)
	}
	for n, st := range l.nodes {
		st.entries = append([]entry(nil), st.entries...)
		st.events = append([]event(nil), st.events...)
		out.nodes[n] = st
	}
	return out
}

// OverlayWithout returns a lightweight view of the ledger for evaluating a
// candidate reschedule of one video. The view behaves like
// Clone-then-RemoveVideo(vid), but the base's entry and event slices are
// neither copied nor modified: the view keeps only its own delta — the
// masked video's negated breakpoint records (recomputed bit-identically
// from the stored entries, each negated Load jump coinciding with the
// base's positive one, so the merged profile has no downward jumps) plus
// whatever the greedy adds — and CanFit merges the base's prefix snapshot
// with that delta. A candidate evaluation therefore costs the size of the
// candidate's own footprint, not the size of the ledger: nothing is copied
// up front, the base's snapshots stay valid and are shared by every live
// view, and only the winning view is applied back to the base (Commit).
//
// The view supports the rejective greedy's working set — Add, Update,
// RemoveVideo, CanFit/CanFitExcluding, SpaceAt — and panics on
// whole-profile walks (Peak, Overflows, OverflowSet) and on Clone. A view
// masks exactly one video and mutations must be limited to residencies of
// that video, which is exactly the greedy's contract: it only places
// copies of the file being rescheduled.
//
// OverlayWithout itself must be called sequentially (it builds the base's
// snapshots in place), but the returned views may then be used
// concurrently with each other and with base reads, provided the base is
// not mutated while views are live. Committing one view mutates the base,
// so it invalidates every other live view of the same base: drop them and
// take fresh ones. A view is scratch space for one evaluation and nothing
// may hold on to it past the round it was taken in; what may be kept is
// the evaluation's result and, to tell later whether it would repeat, the
// view's probe log (Record), which references the view's per-node delta
// slices and nothing else of it.
//
// In naive (reference) mode the view is a plain Clone with the video
// removed, so both query paths keep identical semantics.
func (l *Ledger) OverlayWithout(vid media.VideoID) *Ledger {
	if l.base != nil {
		panic("occupancy: OverlayWithout of an overlay view")
	}
	if l.naive {
		c := l.Clone()
		c.RemoveVideo(vid)
		return c
	}
	for n := range l.nodes {
		l.snapshot(topology.NodeID(n))
	}
	o := &Ledger{
		topo:    l.topo,
		catalog: l.catalog,
		nodes:   make([]nodeState, len(l.nodes)),
		base:    l,
		masked:  vid,
		caps:    l.caps,
		isWh:    l.isWh,
	}
	for _, node := range l.vidNodes[vid] {
		es := l.nodes[node].entries
		st := &o.nodes[node]
		for i := range es {
			if es[i].ref.Video != vid {
				continue
			}
			evs, ne := entryEvents(&es[i])
			for k := 0; k < ne; k++ {
				st.events = insertEvent(st.events,
					event{t: evs[k].t, jump: -evs[k].jump, dslope: -evs[k].dslope})
			}
		}
	}
	return o
}

// Commit applies an overlay view to its base in place — the masked video
// is removed from the base and the view's own residencies are replayed on
// top — and returns the base: the committed result of a winning candidate.
// Only the nodes the reschedule touched advance their version, so every
// other node keeps its prefix snapshot and memoized overflow walk. The
// view itself, and every other live view of the same base, is invalid
// afterwards. Only a live view — one taken from the base's current state
// — can be committed; a result carried over from an earlier state of the
// base has no view left and goes through CommitFile. On a non-overlay
// ledger (the reference path's clone) Commit returns the receiver
// unchanged, so callers treat both paths uniformly;
// the replay performs the same per-node mutations the clone path did, so
// entry order, event arrays and version counters come out bit-identical
// to Clone-then-RemoveVideo-then-reschedule.
func (l *Ledger) Commit() *Ledger {
	if l.base == nil {
		return l
	}
	b := l.base
	b.RemoveVideo(l.masked)
	for n := range l.nodes {
		es := l.nodes[n].entries
		for i := range es {
			b.Add(es[i].ref, es[i].res)
		}
	}
	return b
}

// CommitFile replaces the video's residencies in the ledger with the file
// schedule's: the commit of a reschedule whose view is gone — a winner
// reused from an earlier iteration (ProbeLog). A view ends its greedy
// holding exactly fs.Residencies, registered per node in index order under
// Ref{fs.Video, index}, so this performs the same per-node mutations in the
// same order as that view's Commit would: entry order, event arrays,
// version counters and the surviving prefix snapshots come out identical.
func (l *Ledger) CommitFile(fs *schedule.FileSchedule) {
	if l.base != nil {
		panic("occupancy: CommitFile on an overlay view")
	}
	l.RemoveVideo(fs.Video)
	for n := range l.nodes {
		for j, c := range fs.Residencies {
			if int(c.Loc) == n {
				l.Add(Ref{Video: fs.Video, Index: j}, c)
			}
		}
	}
}
