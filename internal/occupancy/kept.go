// The kept ledger: one that follows a committed schedule from one commit to
// the next, and answers what a fresh build of the schedule it holds answers.

package occupancy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// NewKept returns an empty kept ledger. A kept ledger holds a schedule's
// records as FromSchedule's ledger of the schedule holds them, bit for bit,
// and changes only by Follow, which swaps the records of the residencies in
// which one schedule differs from the next: a caller that checks a schedule at
// every commit keeps one and pays for what the commit changed, not for the
// schedule. It registers no residencies, so it answers the whole-profile
// reads — SpaceAt, Peak, Overflows, AllOverflows — and panics on the
// greedy's working set (Add, Update, RemoveVideo, OverflowSet,
// OverlayWithout, CommitFile).
//
// Its sweep is a fresh build's because its records sit in a fresh build's
// order. A node's sweep sums its records in index order, and float addition
// is not associative, so records at one time must sit in one order.
// FromSchedule adds the residencies video by video, in index order, each
// record after every record already at its time; that puts the records at
// one time in (video, residency index, record) order, a residency's records
// being its load, its last service and the end of its decay, in that order.
// A kept ledger keeps each record's key in that order beside it
// (recordKey), and places every record it adds by (time, key).
func NewKept(topo *topology.Topology, catalog *media.Catalog) *Ledger {
	l := NewLedger(topo, catalog)
	l.kept = true
	l.vidNodes = nil
	l.keys = make([][]uint64, len(l.nodes))
	return l
}

// change is one record a Follow adds or removes at a node, with its key.
type change struct {
	ev  event
	key uint64
}

// recordKey is the place of record rec (0 load, 1 last service, 2 end of
// decay) of residency j of video vid among the records at its time.
func recordKey(vid media.VideoID, j, rec int) uint64 {
	if vid < 0 || int64(vid) >= 1<<32 || j >= 1<<30 {
		panic(fmt.Sprintf("occupancy: residency %d of video %d is past the kept ledger's keys", j, vid))
	}
	return uint64(vid)<<32 | uint64(j)<<2 | uint64(rec)
}

// before orders records by time, then key: the order of a node's records.
func before(t simtime.Time, key uint64, u simtime.Time, other uint64) bool {
	return t < u || t == u && key < other
}

// Follow makes a kept ledger, which holds held, hold next instead (nil is the
// empty schedule). Per video it compares the two files' residencies index by
// index — it never asks whatever produced next what changed — and swaps the
// records of each residency that differs: held's out, next's in. Each node a
// swap touched places the new records by (time, key) in one merge from the
// first position a change reaches, and rebuilds its sweep and its overflow
// walk from that time on (snapshot, Overflows). From the empty schedule it
// is a fresh build: every record is placed as FromSchedule places it, with
// its key beside it. Both schedules must have passed
// schedule.ValidateStructure.
func (l *Ledger) Follow(held, next *schedule.Schedule) {
	if !l.kept {
		panic("occupancy: Follow on a ledger that is not kept")
	}
	if held == nil && next != nil {
		l.build(next)
		return
	}
	if l.adds == nil {
		l.adds, l.dels = make([][]change, len(l.nodes)), make([][]change, len(l.nodes))
	}
	var hf, nf map[media.VideoID]*schedule.FileSchedule
	if held != nil {
		hf = held.Files
	}
	if next != nil {
		nf = next.Files
	}
	for vid, fs := range hf {
		var to []schedule.Residency
		switch n := nf[vid]; {
		case n == fs:
			continue
		case n != nil:
			to = n.Residencies
		}
		l.stageFile(vid, fs.Residencies, to)
	}
	for vid, fs := range nf {
		if hf[vid] == nil {
			l.stageFile(vid, nil, fs.Residencies)
		}
	}
	for n := range l.nodes {
		if len(l.adds[n])+len(l.dels[n]) > 0 {
			l.apply(topology.NodeID(n))
		}
	}
}

// build fills the empty ledger with s's records as FromSchedule does: each
// node's records allocated once, at three per residency, and each record
// inserted after every record at its time, in (video, residency index,
// record) order, so that it sits at its key's place.
func (l *Ledger) build(s *schedule.Schedule) {
	count := make([]int, len(l.nodes))
	for _, fs := range s.Files {
		for i := range fs.Residencies {
			count[fs.Residencies[i].Loc] += 3
		}
	}
	for n, k := range count {
		if k > 0 {
			l.nodes[n].events, l.keys[n] = make([]event, 0, k), make([]uint64, 0, k)
		}
	}
	for _, vid := range s.VideoIDs() {
		for j, c := range s.Files[vid].Residencies {
			v := l.catalog.Video(c.Video)
			e := newEntry(Ref{Video: vid, Index: j}, c, v.Size.Float(), v.Playback)
			evs, n := entryEvents(&e)
			if n == 0 {
				continue
			}
			st := &l.nodes[c.Loc]
			for r := range n {
				i := sort.Search(len(st.events), func(k int) bool { return st.events[k].t > evs[r].t })
				st.events = slices.Insert(st.events, i, evs[r])
				l.keys[c.Loc] = slices.Insert(l.keys[c.Loc], i, recordKey(vid, j, r))
			}
			l.touch(c.Loc, evs[0].t)
			l.dirty(c.Loc)
		}
	}
}

// stageFile stages, per node, the records of each residency of video vid
// that from and to hold differently at the same index.
func (l *Ledger) stageFile(vid media.VideoID, from, to []schedule.Residency) {
	for j := range max(len(from), len(to)) {
		if j < len(from) && j < len(to) && from[j] == to[j] {
			continue
		}
		if j < len(from) {
			l.stage(l.dels, vid, j, from[j])
		}
		if j < len(to) {
			l.stage(l.adds, vid, j, to[j])
		}
	}
}

// stage appends residency j of video vid's records to its node's list, built
// as Add builds them.
func (l *Ledger) stage(lists [][]change, vid media.VideoID, j int, c schedule.Residency) {
	v := l.catalog.Video(c.Video)
	e := newEntry(Ref{Video: vid, Index: j}, c, v.Size.Float(), v.Playback)
	evs, n := entryEvents(&e)
	for r := range n {
		lists[c.Loc] = append(lists[c.Loc], change{ev: evs[r], key: recordKey(vid, j, r)})
	}
}

// apply merges the node's staged changes into its records: every record
// before the first change's position stays where it is, and the rest are
// merged afresh, less the removed, plus the added, in (time, key) order.
func (l *Ledger) apply(node topology.NodeID) {
	st, keys := &l.nodes[node], l.keys[node]
	adds, dels := l.adds[node], l.dels[node]
	byPlace := func(a, b change) int {
		if c := cmp.Compare(a.ev.t, b.ev.t); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	}
	slices.SortFunc(adds, byPlace)
	slices.SortFunc(dels, byPlace)
	from := never
	if len(adds) > 0 {
		from = adds[0].ev.t
	}
	if len(dels) > 0 {
		from = min(from, dels[0].ev.t)
	}
	p := sort.Search(len(st.events), func(i int) bool { return st.events[i].t >= from })
	l.tail = l.tail[:0]
	for i := p; i < len(st.events); i++ {
		l.tail = append(l.tail, change{ev: st.events[i], key: keys[i]})
	}
	n := len(st.events) + len(adds) - len(dels)
	evs, keys := slices.Grow(st.events[:p], n-p), slices.Grow(keys[:p], n-p)
	old, a, d := l.tail, 0, 0
	for len(old) > 0 || a < len(adds) {
		if len(old) > 0 && d < len(dels) && old[0].key == dels[d].key && old[0].ev.t == dels[d].ev.t {
			if old[0].ev != dels[d].ev {
				panic(fmt.Sprintf("occupancy: kept ledger out of sync: record %+v, not %+v", old[0].ev, dels[d].ev))
			}
			old, d = old[1:], d+1
			continue
		}
		if d < len(dels) && (len(old) == 0 || before(dels[d].ev.t, dels[d].key, old[0].ev.t, old[0].key)) {
			panic(fmt.Sprintf("occupancy: kept ledger out of sync: no record %+v", dels[d].ev))
		}
		next := change{}
		switch {
		case a < len(adds) && (len(old) == 0 || before(adds[a].ev.t, adds[a].key, old[0].ev.t, old[0].key)):
			next, a = adds[a], a+1
		case a < len(adds) && adds[a].key == old[0].key && adds[a].ev.t == old[0].ev.t:
			panic(fmt.Sprintf("occupancy: kept ledger out of sync: record %+v added twice", adds[a].ev))
		default:
			next, old = old[0], old[1:]
		}
		evs, keys = append(evs, next.ev), append(keys, next.key)
	}
	if d < len(dels) {
		panic(fmt.Sprintf("occupancy: kept ledger out of sync: no record %+v", dels[d].ev))
	}
	st.events, l.keys[node] = evs, keys
	l.adds[node], l.dels[node] = adds[:0], dels[:0]
	l.touch(node, from)
	l.dirty(node)
}

// Diff reports where two ledgers over topo first answer differently: a
// storage's sweep point, compared bit for bit, or the overflows; "" when they
// agree everywhere. It is test support, for holding a kept ledger to a fresh
// build of what it holds, and no path of a close calls it.
func Diff(topo *topology.Topology, got, want *Ledger) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, node := range topo.Storages() {
		g, w := got.snapshot(node), want.snapshot(node)
		if len(g) != len(w) {
			return fmt.Sprintf("node %d has %d sweep points, want %d", node, len(g), len(w))
		}
		for i := range g {
			if g[i].t != w[i].t || !same(g[i].val, w[i].val) || !same(g[i].slope, w[i].slope) {
				return fmt.Sprintf("node %d sweep point %d is %+v, want %+v", node, i, g[i], w[i])
			}
		}
	}
	if g, w := got.AllOverflows(), want.AllOverflows(); !slices.Equal(g, w) {
		return fmt.Sprintf("overflows %v, want %v", g, w)
	}
	return ""
}
