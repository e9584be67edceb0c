// Package occupancy tracks disk usage at every intermediate storage over
// time and detects storage overflows (paper §4.1). The space requirement of
// one residency is the piecewise-linear profile f_c of Eq. 6; the total at
// a storage is the sum over resident copies, also piecewise linear with
// breakpoints at every residency's Load, LastService and LastService+P.
// Overflow detection is therefore exact: the maximum between breakpoints is
// attained at a breakpoint, and capacity crossings are solved linearly.
//
// # Event index
//
// The scheduler's hot path queries the ledger far more often than it
// mutates it: the rejective greedy runs one capacity check per candidate
// supply point per request, and SORP re-detects overflows every iteration.
// Re-summing Eq. 6 over every entry at every breakpoint would cost O(E²)
// per query. The ledger therefore maintains, per node, a sweep-line event
// index: a time-sorted list of breakpoint records, up to three per
// residency,
//
//	{Load,          jump: +γ·size}          copy reserves its peak space
//	{LastService,   dslope: -γ·size/P}      linear decay begins
//	{LastService+P, dslope: +γ·size/P}      decay reaches zero
//
// so the node's total profile is recovered by a single chronological sweep
// accumulating jumps and integrating the running slope. SpaceAt, Peak,
// Overflows and CanFitExcluding are all one O(E) sweep. The index is updated
// incrementally by Add/Update/RemoveVideo — each mutation inserts or deletes
// that residency's records, recomputed bit-identically from the entry, so
// deletion removes records exactly instead of subtracting floats (no
// cancellation residue accumulates across mutations).
//
// All per-node state lives in a dense slice indexed by NodeID (topology
// IDs are dense builder-assigned indices), so the per-query bookkeeping is
// array indexing rather than map hashing. Overflow results are memoized
// per node under a mutation version counter, so AllOverflows between SORP
// iterations re-walks only the nodes whose profile actually changed.
//
// # Probe logs
//
// A candidate reschedule runs on an overlay view (OverlayWithout) and reads
// the outside through exactly two doors: the yes/no answers of
// CanFitExcluding's sweep, which depend on the base ledger, and the yes/no
// answers of the banned pair (Violates), which depend on the overflow's
// window. A view with a ProbeLog attached (Record) writes each capacity
// query down with its answer, and narrows, per ban answer, the box of
// windows that would have answered alike. ProbeLog.Replay later tells
// whether the base — after any number of commits — would still give every
// capacity query the same answer, by running the same sweep routine on the
// same operands, and ProbeLog.Covers whether a window lies in the box. If
// both hold the reschedule would repeat itself exactly, and SORP reuses its
// result instead of running it again (see internal/sorp).
// A log owns what it replays: it copies the view's per-node delta into its
// own pooled storage when it records against a delta that changed since its
// last copy, so the view writes its delta in place. Nothing else of an
// evaluation outlives its round: the view, event slices included, goes back
// to the solve's Workspace for a later evaluation on any ledger using it to
// reuse (Release), and a winner is committed from its file schedule
// (CommitFile).
package occupancy

import (
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// eps absorbs float jitter when comparing byte quantities: occupancy sums
// are products of ~1e9-byte sizes and unit-free coefficients, so anything
// below a milli-byte is noise.
const eps = 1e-3

// Ref identifies a residency inside a global schedule.
type Ref struct {
	Video media.VideoID
	Index int // index into the FileSchedule's Residencies
}

// Overflow is one storage overflow situation OF_{Δt, ISj}: at storage Node,
// total occupancy exceeds capacity throughout Interval, peaking at Peak
// bytes (Excess bytes above capacity).
type Overflow struct {
	Node     topology.NodeID
	Interval simtime.Interval
	Peak     float64
	Excess   float64
}

func (o Overflow) String() string {
	return fmt.Sprintf("overflow@%d %s peak=%.0fB excess=%.0fB", o.Node, o.Interval, o.Peak, o.Excess)
}

// entry is one registered residency plus its cached profile parameters:
// size and playback from the catalog, and the Eq. 6 peak value v = γ·size
// and decay slope k = v/P, precomputed once at registration so the hot
// paths build the entry's breakpoint records without re-evaluating γ.
type entry struct {
	ref      Ref
	res      schedule.Residency
	size     float64
	playback simtime.Duration
	v        float64 // γ·size; 0 for a copy that occupies nothing
	k        float64 // v / playback, the decay slope (bytes/s)
}

// newEntry builds the registered form of a residency; v and k are
// computed exactly as spanEvents computes them for replayed probes, so
// records built from either source are bit-identical.
func newEntry(ref Ref, c schedule.Residency, size float64, playback simtime.Duration) entry {
	e := entry{ref: ref, res: c, size: size, playback: playback}
	if playback > 0 {
		if v := c.Gamma(playback) * size; v != 0 {
			e.v = v
			e.k = v / playback.Seconds()
		}
	}
	return e
}

// Ledger is the scheduler's view of disk usage at every storage. It is not
// safe for concurrent mutation.
type Ledger struct {
	topo    *topology.Topology
	catalog *media.Catalog
	// nodes holds the per-node state, indexed densely by NodeID.
	nodes []nodeState
	// snap holds the per-node prefix sweeps, lazily (re)built per version.
	// A snapshot survives every mutation of other nodes, so committing a
	// reschedule rebuilds only the nodes it touched.
	snap []nodeSnap
	// base, when non-nil, marks this ledger as an overlay view returned by
	// OverlayWithout: the nodes array holds only the view's own delta (the
	// masked video's negated records plus local additions) and queries
	// merge that delta with the base's — never copied — state.
	base *Ledger
	// masked is the one video an overlay view hides from its base.
	masked media.VideoID
	// log, when non-nil, receives every base-dependent capacity query this
	// overlay view answers (Record, ProbeLog).
	log *ProbeLog
	ws  *Workspace // where views and their logs come from; a view shares its base's
	// caps caches every node's capacity in float bytes and isWh its
	// warehouse-kind flag, so the capacity check — the greedy's hottest
	// query — skips the topology lookups. Shared read-only with views.
	caps []float64
	isWh []bool
	// vidNodes over-approximates, per video, the nodes that may hold one of
	// its copies: Add appends, nothing removes. OverlayWithout masks only
	// these nodes instead of scanning the whole ledger; a stale node costs one
	// empty scan, never a wrong answer. Overlay views never maintain it
	// (they mask through the base's).
	vidNodes map[media.VideoID][]topology.NodeID
	// kept marks a kept ledger (NewKept). keys holds, per node, each
	// record's place in the order FromSchedule makes: keys[n][i] is
	// nodes[n].events[i]'s (recordKey). adds, dels and tail are Follow's
	// working lists, per node and for the merge, kept for the next.
	kept       bool
	keys       [][]uint64
	adds, dels [][]change
	tail       []change
}

// NewLedger returns an empty ledger for the topology.
func NewLedger(topo *topology.Topology, catalog *media.Catalog) *Ledger {
	l := &Ledger{
		topo:    topo,
		catalog: catalog,
		nodes:   make([]nodeState, topo.NumNodes()),
		caps:    make([]float64, topo.NumNodes()),
		isWh:    make([]bool, topo.NumNodes()),
	}
	for n := range l.caps {
		node := topo.Node(topology.NodeID(n))
		l.caps[n] = node.Capacity.Float()
		l.isWh[n] = node.Kind == topology.KindWarehouse
	}
	l.vidNodes = make(map[media.VideoID][]topology.NodeID)
	return l
}

// mustRegister panics on a kept ledger, which registers no residencies.
func (l *Ledger) mustRegister(op string) {
	if l.kept {
		panic("occupancy: " + op + " on a kept ledger")
	}
}

// noteVideoNode records that the video may hold a copy at the node.
func (l *Ledger) noteVideoNode(vid media.VideoID, node topology.NodeID) {
	if l.vidNodes == nil {
		return // overlay view: the base's index covers masking
	}
	ns := l.vidNodes[vid]
	for _, n := range ns {
		if n == node {
			return
		}
	}
	l.vidNodes[vid] = append(ns, node)
}

// FromSchedule builds a ledger holding every residency of the schedule,
// the integration step of paper §3.3. Every node's entries and events are
// allocated once, at their final size — three records per residency — rather
// than grown by append: an epoch close builds one over the shard's whole
// history, for the solve. It adds the residencies video by video, in index
// order, so records at one time sit in (video, residency index, record)
// order, the order a kept ledger (NewKept) keeps too.
func FromSchedule(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule) *Ledger {
	l := NewLedger(topo, catalog)
	count := make([]int, len(l.nodes))
	for _, fs := range s.Files {
		for i := range fs.Residencies {
			count[fs.Residencies[i].Loc]++
		}
	}
	for n, k := range count {
		if k > 0 {
			l.nodes[n].entries = make([]entry, 0, k)
			l.nodes[n].events = make([]event, 0, 3*k)
		}
	}
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		for i, c := range fs.Residencies {
			l.Add(Ref{Video: vid, Index: i}, c)
		}
	}
	return l
}

// Add registers a residency under the given reference.
func (l *Ledger) Add(ref Ref, c schedule.Residency) {
	l.mustRegister("Add")
	v := l.catalog.Video(c.Video)
	e := newEntry(ref, c, v.Size.Float(), v.Playback)
	st := &l.nodes[c.Loc]
	st.entries = append(st.entries, e)
	l.noteVideoNode(c.Video, c.Loc)
	if l.addEntryEvents(c.Loc, &e) {
		l.dirty(c.Loc)
	}
}

// Update replaces the residency registered under ref (e.g. after extending
// its LastService). It reports whether the ref was found. The common case
// — extending a copy in place — is found at the new residency's own node
// without scanning the rest of the ledger.
func (l *Ledger) Update(ref Ref, c schedule.Residency) bool {
	l.mustRegister("Update")
	if l.updateAt(c.Loc, ref, c) {
		return true
	}
	for n := range l.nodes {
		node := topology.NodeID(n)
		if node == c.Loc {
			continue
		}
		if l.updateAt(node, ref, c) {
			return true
		}
	}
	return false
}

func (l *Ledger) updateAt(node topology.NodeID, ref Ref, c schedule.Residency) bool {
	es := l.nodes[node].entries
	for i := range es {
		if es[i].ref != ref {
			continue
		}
		changed := l.removeEntryEvents(node, &es[i])
		if node == c.Loc {
			v := l.catalog.Video(c.Video)
			es[i] = newEntry(ref, c, v.Size.Float(), v.Playback)
			if l.addEntryEvents(node, &es[i]) || changed {
				l.dirty(node)
			}
			return true
		}
		if changed {
			l.dirty(node)
		}
		// Relocated: drop here and re-add at the new node.
		l.nodes[node].entries = append(es[:i], es[i+1:]...)
		l.Add(ref, c)
		return true
	}
	return false
}

// RemoveVideo drops every residency of the given video from the ledger,
// the first step of rescheduling a victim file. Nodes holding no copy of
// the video keep their version (and with it their snapshot). On an overlay
// view it drops the copies the view itself has added; the base's copies are
// already masked.
func (l *Ledger) RemoveVideo(vid media.VideoID) {
	l.mustRegister("RemoveVideo")
	for n := range l.nodes {
		node := topology.NodeID(n)
		st := &l.nodes[n]
		es := st.entries
		kept := es[:0]
		changed := false
		for i := range es {
			if es[i].ref.Video != vid {
				kept = append(kept, es[i])
			} else if l.removeEntryEvents(node, &es[i]) {
				changed = true
			}
		}
		st.entries = kept
		if changed {
			l.dirty(node)
		}
	}
}

// SpaceAt returns the total occupancy at the node at time t, in bytes.
func (l *Ledger) SpaceAt(node topology.NodeID, t simtime.Time) float64 {
	if l.base != nil {
		// Overlay view: the base's value plus the delta integrated up to t.
		total := l.base.SpaceAt(node, t)
		evs := l.nodes[node].events
		val, slope := 0.0, 0.0
		var last simtime.Time
		started := false
		for i := 0; i < len(evs) && evs[i].t <= t; i++ {
			if started {
				val += slope * evs[i].t.Sub(last).Seconds()
			}
			last, started = evs[i].t, true
			val += evs[i].jump
			slope += evs[i].dslope
		}
		if started {
			val += slope * t.Sub(last).Seconds()
		}
		return total + val
	}
	pts := l.snapshot(node)
	i := sort.Search(len(pts), func(k int) bool { return pts[k].t > t }) - 1
	if i < 0 {
		return 0
	}
	return pts[i].val + pts[i].slope*t.Sub(pts[i].t).Seconds()
}

// Peak returns the maximum total occupancy ever reached at the node and a
// time at which it is attained.
func (l *Ledger) Peak(node topology.NodeID) (float64, simtime.Time) {
	if l.base != nil {
		panic("occupancy: Peak on an overlay view")
	}
	// The total profile only jumps upward and decays between jumps (the
	// running slope is never positive), so the maximum is attained at a
	// post-jump breakpoint value; the earliest attaining time wins.
	best, when := 0.0, simtime.Time(0)
	pts := l.snapshot(node)
	for i := range pts {
		if pts[i].val > best {
			best, when = pts[i].val, pts[i].t
		}
	}
	return best, when
}
