// The overlay a candidate reschedule runs on (the base's state shared, the
// view's own delta on top), the process-wide free list views return to, and
// the two ways a result reaches the base.

package occupancy

import (
	"slices"
	"sync"

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
// view, and only the winning view is applied back to the base (Commit).
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
// not mutated while views are live. Committing one view mutates the base,
// so it invalidates every other live view of the same base: drop them and
// take fresh ones. A view serves one evaluation: once nothing will query
// it again its owner hands it back (Release), and a later OverlayWithout of
// any base in the process reuses its storage, so nothing may hold on to a
// view past that. What may be kept is the evaluation's result and, to tell
// later whether it would repeat, the view's probe log (Record), which owns
// copies of the deltas it was asked against and holds nothing of the view.
func (l *Ledger) OverlayWithout(vid media.VideoID) *Ledger {
	if l.base != nil {
		panic("occupancy: OverlayWithout of an overlay view")
	}
	for n := range l.nodes {
		l.snapshot(topology.NodeID(n))
	}
	viewPool.Lock()
	o := pop(&viewPool.views)
	viewPool.Unlock()
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
	o.base, o.masked = l, vid
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

// viewPool holds the overlay views handed back (Release) for any later
// OverlayWithout in the process to reuse: a mutex and a LIFO free list, like
// logPool, shared by concurrent solves and by topologies of any size.
var viewPool struct {
	sync.Mutex
	views []*Ledger
}

// maxPooledViews bounds the views the process keeps for reuse: more than
// the cold first round of a paper-scale batch solve hands back (≈ 600), and
// than three shards' concurrent closes hold at once (≈ 250). Views handed
// back beyond it are the collector's.
const maxPooledViews = 1024

// Release hands an overlay view nothing will query again to the process's
// free list, where the next OverlayWithout of any base reuses its Ledger,
// its per-node array and the backing arrays of its entries and event
// slices: a probe log recorded on the view owns copies of what it needs. On
// a base, or a view already released, Release does nothing. It touches
// neither the base nor any other view.
func (l *Ledger) Release() {
	if l.base == nil {
		return
	}
	for n := range l.nodes {
		st := &l.nodes[n]
		*st = nodeState{entries: st.entries[:0], events: st.events[:0]}
	}
	*l = Ledger{nodes: l.nodes}
	viewPool.Lock()
	if len(viewPool.views) < maxPooledViews {
		viewPool.views = append(viewPool.views, l)
	}
	viewPool.Unlock()
}

// Commit applies an overlay view to its base in place — the masked video
// is removed from the base and the view's own residencies are replayed on
// top — and returns the base: the committed result of a winning candidate.
// Only the nodes the reschedule touched advance their version, so every
// other node keeps its prefix snapshot and memoized overflow walk. The
// view itself, and every other live view of the same base, is invalid
// afterwards. Only a live view — one taken from the base's current state
// — can be committed; a result carried over from an earlier state of the
// base has no view left and goes through CommitFile, which performs the
// same per-node mutations in the same order.
func (l *Ledger) Commit() *Ledger {
	b := l.base
	if b == nil {
		panic("occupancy: Commit of a ledger that is not an overlay view")
	}
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
