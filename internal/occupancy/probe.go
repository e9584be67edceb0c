package occupancy

import (
	"math"
	"sync"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// probe is one logged capacity query: a candidate copy [start, last] of the
// log's video, optionally disregarding the same copy's registered span
// [start, exclLast], asked at the storage, against the delta copy and from
// the start its group names (group). v is the candidate's peak space γ·size
// as the live query computed it (spanValue), so a replay builds the
// candidate's records without evaluating γ again; last and exclLast are kept
// as offsets from the start. next links the probe into its group's chain of
// "no" answers, or into the log's list of "yes" ones. 24 bytes: an evaluation
// logs a few hundred of these against a few kilobytes of its own
// allocations, so the layout — not the replay — decides whether reuse is a
// net saving (DESIGN.md §8).
type probe struct {
	v              float64
	last, exclLast int32  // seconds after the start; exclLast -1: nothing excluded
	group          uint32 // the probe's group, by number
	next           uint32 // 1 + the next probe of its chain or list; 0 ends it
}

// group is what the probes asked at one storage, against one delta copy and
// from one start have in common, and the chain of its "no" answers: head is 1
// + the first probe of it, 0 while the group has none, and minD the least of
// their first-instant values d — the candidate's jump at its start less the
// excluded copy's, summed as the sweep sums them (sweepCheck). A replay enters
// the sweep once per group and checks minD at the start: rounded addition is
// monotone, so if minD overflows there, every member's d does, bit for bit,
// and every "no" of the chain stands. A group's "no"s are all firm refusals
// (firmRefusal) or none are, as firm says: the rejective greedy asks no more
// about a copy it refused firmly, so a firm group's "no"s stand only while
// they are still firm.
type group struct {
	start simtime.Time
	minD  float64
	head  uint32
	delta uint32
	node  uint16
	firm  bool
}

// chunkProbes sizes the unit of probe storage: logs grow and recycle in
// chunks of 32 probes (768 B), so a log never holds more than one partly used
// chunk and recycled storage fits any log. Groups are stored and recycled
// alike, 32 (1 KB) to a chunk.
const (
	chunkProbes = 32
	chunkGroups = 32
)

type probeChunk [chunkProbes]probe

type groupChunk [chunkGroups]group

// chunkEvents sizes the unit of a log's delta storage: the copies of the
// view's per-node deltas are packed into 1.5 KB chunks, recycled like the
// probe chunks. A delta larger than a chunk gets an array of its own.
const chunkEvents = 64

type eventChunk [chunkEvents]event

// windowBox is the set of banned windows under which a sequence of ban
// answers repeats: those whose Start lies in [startLo, startHi] and whose
// End lies in [endLo, endHi]. Banned.Violates compares the window's two
// ends with a copy's support and nothing else, so each answer confines each
// end to a half-line and the set is a box; four integers, narrowed per
// answer, describe it exactly.
type windowBox struct {
	startLo, startHi, endLo, endHi simtime.Time
}

// anyWindow returns the box before the first answer.
func anyWindow() windowBox {
	return windowBox{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64}
}

func (b *windowBox) contains(w simtime.Interval) bool {
	return b.startLo <= w.Start && w.Start <= b.startHi && b.endLo <= w.End && w.End <= b.endHi
}

// narrow confines the box to the windows that answer as w did for a copy at
// the banned node with support sup = [a, b): violates is
// a <= w.End && w.Start < b. A violating copy needs both conjuncts again; a
// clear one keeps the conjunct that failed — it lies wholly after the window
// (a > End) or wholly before it (Start >= b). The strict bounds are stored
// closed, one lower: the comparison that produced them rules out MinInt64.
func (b *windowBox) narrow(w, sup simtime.Interval, violates bool) {
	switch {
	case violates:
		b.endLo = max(b.endLo, sup.Start)
		b.startHi = min(b.startHi, sup.End-1)
	case sup.Start > w.End:
		b.endHi = min(b.endHi, sup.Start-1)
	default:
		b.startLo = max(b.startLo, sup.End)
	}
}

// ProbeLog is the record of every base-dependent capacity query one
// overlay view answered, indexed by group: the queries asked at one storage,
// against one delta copy, from one start. The rejective greedy reads the base
// ledger only through those yes/no answers, so a reschedule evaluated on
// the view comes out identical on any later state of the base that gives
// every logged query the same answer: by induction the first query is the
// same query (everything before it is base-independent), an equal answer
// takes the greedy down the same branch to the same second query against
// the same view delta, and so on. Replay checks exactly that, through the
// sweep routine the live query used, one group at a time.
//
// The greedy's second door to the outside is the banned (storage, window)
// pair, asked through Ledger.Violates. Those answers do not depend on the
// base at all, only on the window, so the log keeps no record of them
// beyond the box of windows under which every one of them repeats (Covers).
// An evaluation is therefore reusable on a later base, around a different
// window, iff the box covers the window and the log replays.
//
// The log assumes what the view's contract already demands — one masked
// video, mutated only with that video's own copies — plus that an excluded
// copy shares the candidate's Load (an extension check) and that every ban
// consulted carries one window; a query outside that shape marks the log
// unreplayable instead of being recorded wrongly.
//
// A log owns copies of the view's per-node deltas, taken when it records
// against a delta that changed since its last copy (nodeState.pin), so the
// view mutates its delta in place and nothing of the view is retained once
// it is released. Not safe for concurrent use.
type ProbeLog struct {
	ws     *Workspace
	masked media.VideoID
	chunks []*probeChunk
	n      int
	// groups holds the group records, in the order of their first probe;
	// index finds one by (delta, start) while the log records, and goes back
	// to the workspace when the evaluation ends (Seal).
	groups  []*groupChunk
	ngroups int
	index   *groupIndex
	// yes is 1 + the first probe of the list of "yes" answers, 0 for none.
	yes uint32
	// deltas holds the distinct per-node delta states probes were asked
	// against: the log's own copies, packed into events.
	deltas [][]event
	// events holds the chunks the copies live in; free is the unused tail
	// of the last one.
	events []*eventChunk
	free   []event
	// vers holds, per node, the base version the answers were recorded or
	// last replayed at — once per log, not per probe.
	vers []uint64
	// box is narrowed by every ban answer given at the banned node.
	box    windowBox
	broken bool
	// entered counts the groups the log's replays entered the sweep for,
	// swept the full sweeps they ran: a "no" whose own first check passed,
	// and a "yes".
	entered, swept int
}

// groupIndex is a recording log's index of its groups: an open-addressed
// table of 1 + a group's number, 0 for an empty slot, whose length is a power
// of two at least twice the groups'.
type groupIndex struct{ slots []uint32 }

// Workspace is the storage one solve's evaluations reuse — views, probe logs,
// their chunks and their group indexes — in LIFO lists bounded by count, not
// a sync.Pool, so what a solve allocates does not depend on GC timing. The
// zero value is empty.
type Workspace struct {
	mu      sync.Mutex
	chunks  []*probeChunk
	groups  []*groupChunk
	events  []*eventChunk
	indexes []*groupIndex
	logs    []*ProbeLog
	views   []*Ledger
}

const (
	maxPooledChunks      = 8192 // 8 MB
	maxPooledGroupChunks = 4096 // 4 MB
	maxPooledEventChunks = 4096 // 6 MB
	maxPooledIndexes     = 1024
	maxPooledLogs        = 1024
	maxPooledViews       = 1024
)

// take pops the last element off one of w's lists, nil when it is empty.
func take[T any](w *Workspace, free *[]*T) *T {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := len(*free)
	if k == 0 {
		return nil
	}
	x := (*free)[k-1]
	*free = (*free)[:k-1]
	return x
}

// push appends as many of xs as fit under max; callers hold w.mu.
func push[T any](free []*T, max int, xs ...*T) []*T {
	return append(free, xs[:min(len(xs), max-len(free))]...)
}

// Record attaches a fresh probe log to an overlay view and returns it;
// call it before the view answers its first query.
func (l *Ledger) Record() *ProbeLog {
	if l.base == nil {
		panic("occupancy: Record on a ledger that is not an overlay view")
	}
	g := take(l.ws, &l.ws.logs)
	if g == nil {
		g = &ProbeLog{}
	}
	g.ws, g.masked, g.box = l.ws, l.masked, anyWindow()
	if cap(g.vers) < len(l.base.nodes) {
		g.vers = make([]uint64, len(l.base.nodes))
	}
	g.vers = g.vers[:len(l.base.nodes)]
	for n := range g.vers {
		g.vers[n] = l.base.nodes[n].ver
	}
	l.log = g
	return g
}

// Release returns the log's storage to its workspace. The log, and the
// recording view if it is still in use, must not be used afterwards.
func (g *ProbeLog) Release() {
	w := g.ws
	clear(g.deltas)
	g.Seal()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chunks = push(w.chunks, maxPooledChunks, g.chunks...)
	w.groups = push(w.groups, maxPooledGroupChunks, g.groups...)
	w.events = push(w.events, maxPooledEventChunks, g.events...)
	clear(g.chunks)
	clear(g.groups)
	clear(g.events)
	*g = ProbeLog{chunks: g.chunks[:0], groups: g.groups[:0], deltas: g.deltas[:0], events: g.events[:0], vers: g.vers[:0]}
	w.logs = push(w.logs, maxPooledLogs, g)
}

func (g *ProbeLog) at(i int) *probe { return &g.chunks[i/chunkProbes][i%chunkProbes] }

func (g *ProbeLog) groupAt(i uint32) *group { return &g.groups[i/chunkGroups][i%chunkGroups] }

// Seal ends the recording: the evaluation the log belongs to is over, and
// the log hands the index it found its groups by back to the workspace, for
// the next evaluation to record with. A query the view answers afterwards is
// still logged, in a group of its own.
func (g *ProbeLog) Seal() {
	x := g.index
	if x == nil {
		return
	}
	g.index = nil
	clear(x.slots)
	g.ws.mu.Lock()
	g.ws.indexes = push(g.ws.indexes, maxPooledIndexes, x)
	g.ws.mu.Unlock()
}

// groupOf returns the number of a group of probes at node against delta copy
// delta from start, adding one if the log has none that fits: for a "yes",
// any; for a "no", one whose "no"s are as firm as it is, or one that has none
// yet and takes its firmness. A (storage, delta, start) thus has at most two
// groups, one of firm "no"s and one of others, and one when its "no"s agree.
func (g *ProbeLog) groupOf(node uint16, delta uint32, start simtime.Time, fits, firm bool) uint32 {
	if g.index == nil {
		if g.index = take(g.ws, &g.ws.indexes); g.index == nil {
			g.index = new(groupIndex)
		}
	}
	slots := g.index.slots
	if 2*(g.ngroups+1) > len(slots) {
		slots = g.grow()
	}
	mask := uint64(len(slots) - 1)
	for i := slotHash(delta, start) & mask; ; i = (i + 1) & mask {
		k := slots[i]
		if k == 0 {
			gi := uint32(g.ngroups)
			if g.ngroups == len(g.groups)*chunkGroups {
				ch := take(g.ws, &g.ws.groups)
				if ch == nil {
					ch = new(groupChunk)
				}
				g.groups = append(g.groups, ch)
			}
			g.ngroups++
			*g.groupAt(gi) = group{start: start, delta: delta, node: node, firm: firm}
			slots[i] = gi + 1
			return gi
		}
		if gr := g.groupAt(k - 1); gr.start == start && gr.delta == delta && (fits || gr.firm == firm || gr.head == 0) {
			if !fits {
				gr.firm = firm
			}
			return k - 1
		}
	}
}

// grow doubles the index (64 slots the first time), re-slots every group and
// returns the new slots.
func (g *ProbeLog) grow() []uint32 {
	n := max(64, 2*len(g.index.slots))
	slots := make([]uint32, n)
	mask := uint64(n - 1)
	for gi := 0; gi < g.ngroups; gi++ {
		gr := g.groupAt(uint32(gi))
		i := slotHash(gr.delta, gr.start) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(gi) + 1
	}
	g.index.slots = slots
	return slots
}

// slotHash mixes a group's key into the index's slot numbers.
func slotHash(delta uint32, start simtime.Time) uint64 {
	h := (uint64(start) ^ uint64(delta)<<40) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// copyDelta returns a copy of a view's per-node delta in storage the log
// owns: the free tail of its last event chunk, a fresh chunk when the tail
// is too short, or an exact-size array for a delta no chunk holds.
func (g *ProbeLog) copyDelta(evs []event) []event {
	n := len(evs)
	switch {
	case n > chunkEvents:
		return append([]event(nil), evs...)
	case n > len(g.free):
		ch := take(g.ws, &g.ws.events)
		if ch == nil {
			ch = new(eventChunk)
		}
		g.events = append(g.events, ch)
		g.free = ch[:]
	}
	d := g.free[:n:n]
	copy(d, evs)
	g.free = g.free[n:]
	return d
}

// offset returns t - load as a probe stores it, and whether it fits.
func offset(load, t simtime.Time) (int32, bool) {
	d := t.Sub(load)
	return int32(d), d == simtime.Duration(int32(d))
}

// record logs one answered query of view l: candidate c, whose peak space is
// v, and excluded, the registered copy the query disregarded, if any; firm
// tells a firm refusal (firmRefusal), and d is the sweep's value of the
// candidate's records at its start (sweepCheck).
func (g *ProbeLog) record(l *Ledger, c schedule.Residency, v float64, excluded *entry, fits, firm bool, d float64) {
	last, ok := offset(c.Load, c.LastService)
	exclLast := int32(-1)
	if excluded != nil && ok {
		exclLast, ok = offset(c.Load, excluded.res.LastService)
		ok = ok && exclLast >= 0
	}
	if !ok || c.Video != g.masked || c.Loc > math.MaxUint16 || len(g.deltas) == math.MaxUint32 ||
		g.n == math.MaxUint32-1 || (excluded != nil && (excluded.res.Video != c.Video || excluded.res.Load != c.Load)) {
		g.broken = true
		return
	}
	st := &l.nodes[c.Loc]
	if st.pin == 0 {
		g.deltas = append(g.deltas, g.copyDelta(st.events))
		st.pin = uint32(len(g.deltas))
	}
	gi := g.groupOf(uint16(c.Loc), st.pin-1, c.Load, fits, firm)
	if g.n == len(g.chunks)*chunkProbes {
		ch := take(g.ws, &g.ws.chunks)
		if ch == nil {
			ch = new(probeChunk)
		}
		g.chunks = append(g.chunks, ch)
	}
	p := g.at(g.n)
	g.n++
	*p = probe{v: v, last: last, exclLast: exclLast, group: gi}
	if fits {
		p.next, g.yes = g.yes, uint32(g.n)
		return
	}
	gr := g.groupAt(gi)
	if gr.head == 0 || d < gr.minD {
		gr.minD = d
	}
	p.next, gr.head = gr.head, uint32(g.n)
}

// Covers reports whether every ban answer the recording view gave would
// have been the same had the banned window been w. The window the
// evaluation ran under is always covered.
func (g *ProbeLog) Covers(w simtime.Interval) bool { return g.box.contains(w) }

// Replay reports whether every logged answer still holds on base — the
// ledger the recording view was taken from, in any later state — and so
// whether the evaluation the log belongs to would repeat itself exactly.
// Answers at nodes whose version has not moved since the log was recorded or
// last replayed hold trivially. The others are re-asked against the node's
// current prefix sweep through the sweep's own steps (sweepCheck), with the
// view's delta as it stood at the time and the candidate's records rebuilt
// from the probe: from its stored peak by peakEvents, the excluded copy's
// from its span by spanEvents (bit-identical to the registered entry's, see
// newEntry).
//
// A firm refusal holds only while it is still firm. The rejective greedy
// asked nothing more about a copy once it was firmly refused (the log has no
// record of those questions), so an evaluation on base repeats itself only
// if base refuses the copy firmly again; a refusal within the margin would
// send it on to ask them, and the log breaks.
//
// A replay walks groups, not probes. For a group with "no" answers at a
// moved node it enters the sweep once, at the group's start, and checks the
// group's least d there (sweep.total): if that overflows — firmly, in a firm
// group — every "no" of the chain stands, bit for bit, and the group is
// done. Otherwise each member gets its own first check at its own d, and a
// member that passes it the rest of the sweep (sweep.walk). Every "yes" is
// re-asked by the full sweep. The caller must separately know that the
// masked video's own copies in base are unchanged: they are the view's
// initial delta.
//
// Replay reads the snapshots of the storages its probes are at and builds
// any of them not built at the node's current version; it then writes only
// the log's own versions and counters. After AllOverflows, which builds every
// storage's snapshot, it writes nothing of base until base next mutates. A
// log is written by its replay, so one log must not be replayed concurrently
// with itself.
func (g *ProbeLog) Replay(base *Ledger) bool {
	if g.broken {
		return false
	}
	v := base.catalog.Video(g.masked)
	size, playback := v.Size.Float(), v.Playback
	moved := false
	var extra [6]event
	for ci, left := 0, g.ngroups; left > 0; ci, left = ci+1, left-chunkGroups {
		for j := range g.groups[ci][:min(left, chunkGroups)] {
			gr := &g.groups[ci][j]
			node := topology.NodeID(gr.node)
			if gr.head == 0 || base.nodes[node].ver == g.vers[node] {
				continue
			}
			moved = true
			g.entered++
			capacity := base.caps[node]
			var s sweep
			s.enter(base.snapshot(node), g.deltas[gr.delta], gr.start)
			if stands(gr.firm, s.total(gr.minD, gr.start), capacity) {
				continue
			}
			for k := gr.head; k != 0; {
				p := g.at(int(k - 1))
				k = p.next
				ne, sup := g.records(&extra, gr, p, size, playback)
				evs, x := firstRecords(&extra, ne, gr.start)
				if total := s.total(x.at(gr.start), gr.start); overCapacity(total, capacity) {
					if !stands(gr.firm, total, capacity) {
						return false
					}
					continue
				}
				g.swept++
				if fits, total := s.walk(x, evs, sup, capacity); fits || !stands(gr.firm, total, capacity) {
					return false
				}
			}
		}
	}
	for k := g.yes; k != 0; {
		p := g.at(int(k - 1))
		k = p.next
		gr := g.groupAt(p.group)
		node := topology.NodeID(gr.node)
		if base.nodes[node].ver == g.vers[node] {
			continue
		}
		moved = true
		g.swept++
		ne, sup := g.records(&extra, gr, p, size, playback)
		if fits, _ := sweepFits(base.snapshot(node), g.deltas[gr.delta], &extra, ne, sup, base.caps[node]); !fits {
			return false
		}
	}
	if moved {
		for n := range g.vers {
			g.vers[n] = base.nodes[n].ver
		}
	}
	return true
}

// stands reports whether a logged refusal of a group, firm or not, stands
// where the replay's sweep refuses with the total given.
func stands(firm bool, total, capacity float64) bool {
	if firm {
		return firmRefusal(total, capacity)
	}
	return overCapacity(total, capacity)
}

// records rebuilds a probe of the group's sweep records into extra, as the
// live query built them, and returns their count and the candidate's support.
func (g *ProbeLog) records(extra *[6]event, gr *group, p *probe, size float64, playback simtime.Duration) (int, simtime.Interval) {
	last := gr.start.Add(simtime.Duration(p.last))
	ne := peakEvents(extra, 0, gr.start, last, p.v, playback, false)
	if p.exclLast >= 0 {
		ne = spanEvents(extra, ne, gr.start, gr.start.Add(simtime.Duration(p.exclLast)), size, playback, true)
	}
	return ne, simtime.NewInterval(gr.start, last.Add(playback))
}
