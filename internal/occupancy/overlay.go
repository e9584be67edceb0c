// The overlay a candidate reschedule runs on (the base's state shared, the
// view's own delta on top), the workspace views return to, and the commit
// that takes a result to the base.

package occupancy

import (
	"slices"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/topology"
)

// OverlayWithout returns a lightweight view of the ledger for evaluating a
// candidate reschedule of one video. The view answers like a copy of the
// ledger with RemoveVideo(vid) applied, but the base's entry and event
// slices are neither copied nor modified: the view keeps only its own
// delta — the masked video's negated breakpoint records (recomputed
// bit-identically from the stored entries, each negated Load jump
// coinciding with the base's positive one, so the merged profile has no
// downward jumps) plus whatever the greedy adds — and CanFitExcluding
// merges the base's prefix snapshot with that delta. A candidate evaluation therefore costs the size of the
// candidate's own footprint, not the size of the ledger: nothing is copied
// up front, the base's snapshots stay valid and are shared by every live
// view, and only the winner's file is applied back to the base (CommitFile).
//
// The view supports the rejective greedy's working set — Add, Update,
// RemoveVideo, CanFitExcluding, SpaceAt — and panics on whole-profile
// walks (Peak, Overflows, OverflowSet). A view masks exactly one video and
// mutations must be limited to residencies of that video, which is exactly
// the greedy's contract: it only places copies of the file being
// rescheduled.
//
// OverlayWithout itself must be called sequentially (it builds the base's
// snapshots in place), but the returned views may then be used
// concurrently with each other and with base reads, provided the base is
// not mutated while views are live. Committing a result mutates the base,
// so it invalidates every live view of the base: drop them and take fresh
// ones. A view serves one evaluation: its owner then hands it back (Release)
// to the base's workspace (UseWorkspace; a base without one makes its own
// here) for a later OverlayWithout to reuse. What may be kept is the
// evaluation's result and its probe log (Record), which owns copies of the
// deltas it was asked against and holds nothing of the view.
func (l *Ledger) OverlayWithout(vid media.VideoID) *Ledger {
	if l.base != nil {
		panic("occupancy: OverlayWithout of an overlay view")
	}
	for n := range l.nodes {
		l.snapshot(topology.NodeID(n))
	}
	if l.ws == nil {
		l.ws = new(Workspace)
	}
	o := take(l.ws, &l.ws.views)
	if o == nil {
		o = new(Ledger)
	}
	// A handed-back view may come from another base, of another topology:
	// every node slot up to the array's capacity is empty (Release), so
	// the array is resliced to this base's node count, grown if short.
	n := len(l.nodes)
	if c := cap(o.nodes); c < n {
		o.nodes = slices.Grow(o.nodes[:c], n-c)
	}
	o.nodes = o.nodes[:n]
	o.topo, o.catalog, o.caps, o.isWh = l.topo, l.catalog, l.caps, l.isWh
	o.base, o.masked, o.ws = l, vid, l.ws
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

// UseWorkspace makes the ledger's views, and the logs recorded on them, take
// their storage from ws and hand it back there.
func (l *Ledger) UseWorkspace(ws *Workspace) { l.ws = ws }

// Release hands an overlay view nothing will query again to its workspace,
// where the next OverlayWithout reuses its Ledger, node array and entry and
// event arrays (a probe log on the view owns copies of what it needs). It
// touches no other ledger, and does nothing on a base or a released view.
func (l *Ledger) Release() {
	if l.base == nil {
		return
	}
	for n := range l.nodes {
		st := &l.nodes[n]
		*st = nodeState{entries: st.entries[:0], events: st.events[:0]}
	}
	*l = Ledger{nodes: l.nodes, ws: l.ws}
	l.ws.mu.Lock()
	l.ws.views = push(l.ws.views, maxPooledViews, l)
	l.ws.mu.Unlock()
}

// CommitFile replaces the video's residencies in the ledger with the file
// schedule's, in place: the commit of a winning reschedule, whether its view
// is still live or gone — a winner reused from an earlier iteration
// (ProbeLog). A view ends its greedy holding exactly fs.Residencies,
// registered per node in index order under Ref{fs.Video, index}, so the
// ledger ends holding what a copy of it with the video removed and the
// view's residencies added would. Only the nodes whose profile the commit
// changes advance their version, so every other node keeps its prefix
// snapshot and memoized overflow walk. Every live
// view of the ledger is invalid afterwards.
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
