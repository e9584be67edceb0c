package occupancy

import (
	"math"
	"sync"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// probe is one logged capacity query: a candidate copy [load, last] of the
// log's video at node, optionally disregarding the same copy's registered
// span [load, exclLast], asked while the view's delta at the node was the
// log's copy number delta. 32 bytes: an evaluation logs a few hundred of
// these against a few kilobytes of its own allocations, so the layout — not
// the replay — decides whether reuse is a net saving (DESIGN.md §8).
type probe struct {
	load, last, exclLast simtime.Time
	delta                uint32
	node                 uint16
	flags                uint16
}

const (
	probeFits = 1 << iota // the recorded answer
	probeExcl             // exclLast is set: an excluded copy was found
)

// chunkProbes sizes the unit of probe storage: logs grow and recycle in
// 1 KB chunks, so a log never holds more than one partly used chunk and
// recycled storage fits any log.
const chunkProbes = 32

type probeChunk [chunkProbes]probe

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
// overlay view answered, in order. The rejective greedy reads the base
// ledger only through those yes/no answers, so a reschedule evaluated on
// the view comes out identical on any later state of the base that gives
// every logged query the same answer: by induction the first query is the
// same query (everything before it is base-independent), an equal answer
// takes the greedy down the same branch to the same second query against
// the same view delta, and so on. Replay checks exactly that, through the
// sweep routine the live query used.
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
// view mutates its delta in place and nothing of the view is retained. Not
// safe for concurrent use.
type ProbeLog struct {
	ws     *Workspace
	masked media.VideoID
	chunks []*probeChunk
	n      int
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
}

// Workspace is the storage one solve's evaluations reuse — views, probe logs
// and their chunks — in LIFO lists bounded by count, not a sync.Pool, so what
// a solve allocates does not depend on GC timing. The zero value is empty.
type Workspace struct {
	mu     sync.Mutex
	chunks []*probeChunk
	events []*eventChunk
	logs   []*ProbeLog
	views  []*Ledger
}

const (
	maxPooledChunks      = 8192 // 8 MB
	maxPooledEventChunks = 4096 // 6 MB
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
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chunks = push(w.chunks, maxPooledChunks, g.chunks...)
	w.events = push(w.events, maxPooledEventChunks, g.events...)
	clear(g.chunks)
	clear(g.events)
	*g = ProbeLog{chunks: g.chunks[:0], deltas: g.deltas[:0], events: g.events[:0], vers: g.vers[:0]}
	w.logs = push(w.logs, maxPooledLogs, g)
}

func (g *ProbeLog) at(i int) *probe { return &g.chunks[i/chunkProbes][i%chunkProbes] }

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

// record logs one answered query of view l. excluded is the registered
// copy the query disregarded, if any.
func (g *ProbeLog) record(l *Ledger, c schedule.Residency, excluded *entry, fits bool) {
	if c.Video != g.masked || c.Loc > math.MaxUint16 || len(g.deltas) == math.MaxUint32 ||
		(excluded != nil && (excluded.res.Video != c.Video || excluded.res.Load != c.Load)) {
		g.broken = true
		return
	}
	st := &l.nodes[c.Loc]
	if st.pin == 0 {
		g.deltas = append(g.deltas, g.copyDelta(st.events))
		st.pin = uint32(len(g.deltas))
	}
	if g.n == len(g.chunks)*chunkProbes {
		ch := take(g.ws, &g.ws.chunks)
		if ch == nil {
			ch = new(probeChunk)
		}
		g.chunks = append(g.chunks, ch)
	}
	p := g.at(g.n)
	g.n++
	*p = probe{load: c.Load, last: c.LastService, delta: st.pin - 1, node: uint16(c.Loc)}
	if fits {
		p.flags |= probeFits
	}
	if excluded != nil {
		p.flags |= probeExcl
		p.exclLast = excluded.res.LastService
	}
}

// Covers reports whether every ban answer the recording view gave would
// have been the same had the banned window been w. The window the
// evaluation ran under is always covered.
func (g *ProbeLog) Covers(w simtime.Interval) bool { return g.box.contains(w) }

// Replay reports whether every logged answer still holds on base — the
// ledger the recording view was taken from, in any later state — and so
// whether the evaluation the log belongs to would repeat itself exactly.
// Probes on nodes whose version has not moved since the log was recorded
// or last replayed hold trivially; the others are re-asked against the
// node's current prefix sweep through sweepFits, with the view's delta as
// it stood at the time and the extra records rebuilt from the probe by
// spanEvents (bit-identical to the registered entry's, see newEntry).
// The caller must separately know that the masked video's own copies in
// base are unchanged: they are the view's initial delta.
//
// Replay reads the snapshots of the storages its probes are at and builds
// any of them not built at the node's current version; it then writes only
// the log's own versions. After AllOverflows, which builds every storage's
// snapshot, it writes nothing of base until base next mutates. A log is
// written by its replay, so one log must not be replayed concurrently with
// itself.
func (g *ProbeLog) Replay(base *Ledger) bool {
	if g.broken {
		return false
	}
	v := base.catalog.Video(g.masked)
	size, playback := v.Size.Float(), v.Playback
	moved := false
	for ci, left := 0, g.n; left > 0; ci, left = ci+1, left-chunkProbes {
		for j := range g.chunks[ci][:min(left, chunkProbes)] {
			p := &g.chunks[ci][j]
			node := topology.NodeID(p.node)
			if base.nodes[node].ver == g.vers[node] {
				continue
			}
			moved = true
			var extra [6]event
			ne := spanEvents(&extra, 0, p.load, p.last, size, playback, false)
			if p.flags&probeExcl != 0 {
				ne = spanEvents(&extra, ne, p.load, p.exclLast, size, playback, true)
			}
			sup := simtime.NewInterval(p.load, p.last.Add(playback))
			fits := sweepFits(base.snapshot(node), g.deltas[p.delta], &extra, ne, sup, base.caps[node])
			if fits != (p.flags&probeFits != 0) {
				return false
			}
		}
	}
	if moved {
		for n := range g.vers {
			g.vers[n] = base.nodes[n].ver
		}
	}
	return true
}
