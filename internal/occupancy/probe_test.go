package occupancy

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// viewOp is one step of a scripted evaluation on an overlay view: a
// capacity query (optionally an extension check excluding the view's own
// copy ref), or a mutation registering or extending one of the masked
// video's copies.
type viewOp struct {
	query   bool
	c       schedule.Residency
	ref     Ref
	exclude bool
	update  bool
}

// randomScript draws a fixed op sequence for the masked video: the
// greedy's access pattern (probe a few candidates, register or extend one)
// without its answer-dependent branching, so the same script can be run on
// any view and the answers compared position by position.
func randomScript(rng *rand.Rand, vid media.VideoID, stores []topology.NodeID, n int) []viewOp {
	sec := simtime.Time(simtime.Second)
	var own []viewOp // registered copies, by index
	var ops []viewOp
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 6 || len(own) == 0: // probe a fresh candidate
			load := simtime.Time(rng.Intn(600)) * sec
			c := res(vid, stores[rng.Intn(len(stores))], load, load.Add(simtime.Duration(rng.Intn(300))*simtime.Second))
			ops = append(ops, viewOp{query: true, c: c})
			if k < 2 { // and register it
				op := viewOp{c: c, ref: Ref{Video: vid, Index: len(own)}}
				own = append(own, op)
				ops = append(ops, op)
			}
		default: // extension check of an own copy, sometimes applied
			i := rng.Intn(len(own))
			c := own[i].c
			c.LastService = c.LastService.Add(simtime.Duration(1+rng.Intn(120)) * simtime.Second)
			ops = append(ops, viewOp{query: true, c: c, ref: own[i].ref, exclude: true})
			if k < 9 {
				own[i].c = c
				ops = append(ops, viewOp{c: c, ref: own[i].ref, update: true})
			}
		}
	}
	return ops
}

// scripted is what a script asks of a view, and of the reference copy it is
// compared with.
type scripted interface {
	Add(Ref, schedule.Residency)
	Update(Ref, schedule.Residency) bool
	CanFitExcluding(schedule.Residency, *Ref) bool
}

// runScript executes the script on a view and returns the query answers in
// order; after is called after every query.
func runScript(view scripted, ops []viewOp, after func(query int)) []bool {
	var answers []bool
	for _, op := range ops {
		switch {
		case op.query && op.exclude:
			answers = append(answers, view.CanFitExcluding(op.c, &op.ref))
		case op.query:
			answers = append(answers, view.CanFitExcluding(op.c, nil))
		case op.update:
			view.Update(op.ref, op.c)
		default:
			view.Add(op.ref, op.c)
		}
		if op.query && after != nil {
			after(len(answers) - 1)
		}
	}
	return answers
}

// TestPropertyReplayMatchesReasking pins ProbeLog.Replay to its
// specification. A scripted evaluation is recorded on a view of a seeded
// random ledger; the base is then mutated (other videos only — the masked
// video's copies are the view's initial delta) and the log replayed. Replay
// must report "holds" exactly when running the same script on a fresh view
// of the mutated base — which re-asks every query against the same view
// delta — returns the recorded answers, over several rounds of mutation
// (a replay that holds re-bases the log's versions). Along the way every
// delta snapshot a probe references must keep the contents it had when the
// probe was logged, however the view mutated afterwards.
func TestPropertyReplayMatchesReasking(t *testing.T) {
	held, broke := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		_, base, _, topo := randomLedgers(t, seed, 6, 60)
		rng := rand.New(rand.NewSource(seed ^ 0x9e37))
		var stores []topology.NodeID
		for n := 1; n < topo.NumNodes(); n++ {
			stores = append(stores, topology.NodeID(n))
		}
		vid := media.VideoID(rng.Intn(6))
		script := randomScript(rng, vid, stores, 80)

		view := base.OverlayWithout(vid)
		log := view.Record()
		var pinned [][]event
		want := runScript(view, script, func(q int) {
			if log.n != q+1 {
				t.Fatalf("seed %d: query %d logged %d probes", seed, q, log.n)
			}
			pinned = append(pinned, append([]event(nil), log.deltas[log.at(q).delta]...))
		})
		for q, snap := range pinned {
			got := log.deltas[log.at(q).delta]
			if len(got) != len(snap) {
				t.Fatalf("seed %d: probe %d's delta snapshot changed length after the fact", seed, q)
			}
			for i := range snap {
				if got[i] != snap[i] {
					t.Fatalf("seed %d: probe %d's delta snapshot was mutated in place", seed, q)
				}
			}
		}

		next := 1000
		for round := 0; round < 4; round++ {
			// Small perturbations mostly keep the answers; the occasional
			// long copy flips some.
			for k := 0; k < 1+rng.Intn(3); k++ {
				other := media.VideoID((int(vid) + 1 + rng.Intn(5)) % 6)
				load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
				span := simtime.Duration(rng.Intn(20)) * simtime.Second
				if rng.Intn(4) == 0 {
					span = simtime.Duration(100+rng.Intn(200)) * simtime.Second
				}
				switch rng.Intn(3) {
				case 0:
					base.RemoveVideo(other)
				default:
					base.Add(Ref{Video: other, Index: next}, res(other, stores[rng.Intn(len(stores))], load, load.Add(span)))
					next++
				}
			}
			got := runScript(base.OverlayWithout(vid), script, nil)
			holds := true
			for i := range want {
				holds = holds && got[i] == want[i]
			}
			if replay := log.Replay(base); replay != holds {
				t.Fatalf("seed %d round %d: Replay = %v, but re-asking on a fresh view gives holds = %v", seed, round, replay, holds)
			}
			if !holds {
				broke++
				break
			}
			held++
		}
		log.Release()
	}
	t.Logf("replays: %d held, %d broke", held, broke)
	if held == 0 || broke == 0 {
		t.Fatalf("fixture bug: %d replays held and %d broke; need both", held, broke)
	}
}

// A view handed back (Release) is reused by the next OverlayWithout, event
// arrays included, and that must break nothing. A log recorded on the view
// must keep every delta it copied while the recycled view writes another
// video's delta into the same arrays, and later replay exactly when
// re-asking its script does; the recycled view must answer every capacity
// query of its script — extension checks of its own copies included — as a
// fresh view and the reference do, and SpaceAt as a fresh view does and as
// the reference does within the equivalence tolerance.
func TestRecycledViewKeepsLogsAndAnswers(t *testing.T) {
	held, broke, kept := 0, 0, 0
	for seed := int64(0); seed < 16; seed++ {
		ref, base, _, topo := randomLedgers(t, seed, 6, 60)
		rng := rand.New(rand.NewSource(seed ^ 0x7ec1))
		var stores []topology.NodeID
		for n := 1; n < topo.NumNodes(); n++ {
			stores = append(stores, topology.NodeID(n))
		}
		vidA := media.VideoID(rng.Intn(6))
		vidB := (vidA + 1 + media.VideoID(rng.Intn(5))) % 6
		scriptA := randomScript(rng, vidA, stores, 60)
		scriptB := randomScript(rng, vidB, stores, 60)

		view := base.OverlayWithout(vidA)
		log := view.Record()
		var pinned [][]event
		want := runScript(view, scriptA, func(q int) {
			pinned = append(pinned, append([]event(nil), log.deltas[log.at(q).delta]...))
		})
		arrays := make([][]event, len(view.nodes))
		for n := range view.nodes {
			arrays[n] = view.nodes[n].events
		}
		view.Release()

		recycled := base.OverlayWithout(vidB)
		if recycled != view {
			t.Fatalf("seed %d: OverlayWithout did not reuse the view handed back", seed)
		}
		for n, a := range arrays {
			evs := recycled.nodes[n].events
			switch {
			case cap(a) == 0:
			case unsafe.SliceData(evs) == unsafe.SliceData(a):
				kept++
			case len(evs) <= cap(a):
				t.Fatalf("seed %d: node %d's delta left an event array that had room for it", seed, n)
			}
		}
		fresh := base.OverlayWithout(vidB)
		reference := ref.without(vidB)
		got := runScript(recycled, scriptB, nil)
		if f, r := runScript(fresh, scriptB, nil), runScript(reference, scriptB, nil); !slices.Equal(got, f) || !slices.Equal(got, r) {
			t.Fatalf("seed %d: the recycled view answered %v, a fresh one %v, the reference %v", seed, got, f, r)
		}
		for _, node := range stores {
			for ti := 0; ti <= 60; ti++ {
				at := simtime.Time(ti*15) * simtime.Time(simtime.Second)
				a, b, c := recycled.SpaceAt(node, at), fresh.SpaceAt(node, at), reference.SpaceAt(node, at)
				if a != b || math.Abs(a-c) > equivTol*(1+math.Abs(c)) {
					t.Fatalf("seed %d: SpaceAt(%d, %v) = %g on the recycled view, %g on a fresh one, %g on the reference",
						seed, node, at, a, b, c)
				}
			}
		}
		for q, snap := range pinned {
			if !slices.Equal(log.deltas[log.at(q).delta], snap) {
				t.Fatalf("seed %d: probe %d's delta snapshot changed while its view served video %d", seed, q, vidB)
			}
		}
		recycled.Release()
		fresh.Release()

		// Move the base under the log (never video A's copies, the log's
		// initial delta) until an answer flips.
		next := 1000
		for round := 0; round < 4; round++ {
			for k := 0; k < 1+rng.Intn(3); k++ {
				other := (vidA + 1 + media.VideoID(rng.Intn(5))) % 6
				load := simtime.Time(rng.Intn(600)) * simtime.Time(simtime.Second)
				span := simtime.Duration(100+rng.Intn(200)) * simtime.Second
				base.Add(Ref{Video: other, Index: next}, res(other, stores[rng.Intn(len(stores))], load, load.Add(span)))
				next++
			}
			again := base.OverlayWithout(vidA) // a recycled view again
			holds := slices.Equal(runScript(again, scriptA, nil), want)
			again.Release()
			if replay := log.Replay(base); replay != holds {
				t.Fatalf("seed %d round %d: Replay = %v, but re-asking the script gives holds = %v", seed, round, replay, holds)
			}
			if !holds {
				broke++
				break
			}
			held++
		}
		log.Release()
	}
	if held == 0 || broke == 0 {
		t.Fatalf("fixture bug: %d replays held and %d broke; need both", held, broke)
	}
	if kept == 0 {
		t.Fatal("no recycled view wrote its delta into an event array it kept")
	}
}

// TestProbeLogOwnsItsDeltas pins the ownership: a probe log copies the
// view's per-node delta into storage of its own, so the view's next
// mutation of the node writes in place, on the same backing array, and the
// probe's delta keeps what it was asked against. Probes with no mutation
// between them share one copy, and a released log's storage serves the
// next log without allocating.
func TestProbeLogOwnsItsDeltas(t *testing.T) {
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	base := NewLedger(topo, cat)
	base.Add(Ref{Video: 0, Index: 0}, res(0, is1, 0, 200))
	base.Add(Ref{Video: 1, Index: 0}, res(1, is1, 50, 120))

	view := base.OverlayWithout(1)
	own := Ref{Video: 1, Index: 0}
	view.Add(own, res(1, is1, 300, 400))
	log := view.Record()
	view.CanFitExcluding(res(1, is1, 500, 600), nil)
	evs := view.nodes[is1].events
	got := log.deltas[log.at(0).delta]
	before := slices.Clone(got)
	if len(got) == 0 || !slices.Equal(got, evs) {
		t.Fatalf("fixture bug: the probe's delta %v is not the view's %v", got, evs)
	}
	if &got[0] == &evs[0] {
		t.Fatal("the probe's delta aliases the view's event slice instead of copying it")
	}

	// Extending the copy removes its three records and inserts three: the
	// view's array has the room, and nothing stops it writing there.
	view.Update(own, res(1, is1, 300, 450))
	after := view.nodes[is1].events
	if &after[0] != &evs[0] {
		t.Fatal("the view moved its delta to a new array after a probe")
	}
	if slices.Equal(after, before) {
		t.Fatal("fixture bug: the update left the view's delta as it was")
	}
	if !slices.Equal(got, before) {
		t.Fatalf("the probe's delta changed with the view's: %v, was %v", got, before)
	}

	// The next probe copies the new state, and the one after shares it.
	view.CanFitExcluding(res(1, is1, 700, 800), nil)
	view.CanFitExcluding(res(1, is1, 900, 1000), nil)
	if log.at(1).delta == log.at(0).delta || log.at(2).delta != log.at(1).delta {
		t.Fatalf("delta indices %d %d %d: want a new copy after the mutation, shared until the next",
			log.at(0).delta, log.at(1).delta, log.at(2).delta)
	}
	if !slices.Equal(log.deltas[log.at(1).delta], after) {
		t.Fatalf("the second copy %v is not the view's delta %v", log.deltas[log.at(1).delta], after)
	}

	// Released storage serves the next log: the same chunk, and a whole
	// recorded evaluation on a recycled view and log allocates nothing.
	chunk := log.events[0]
	log.Release()
	view.Release()
	evaluate := func() *ProbeLog {
		v := base.OverlayWithout(1)
		g := v.Record()
		v.Add(own, res(1, is1, 300, 400))
		v.CanFitExcluding(res(1, is1, 500, 600), nil)
		v.Update(own, res(1, is1, 300, 450))
		v.CanFitExcluding(res(1, is1, 700, 800), nil)
		v.Release()
		return g
	}
	next := evaluate()
	if len(next.deltas) != 2 || next.events[0] != chunk {
		t.Fatal("the next log did not copy its deltas into the chunk the released log handed back")
	}
	next.Release()
	if allocs := testing.AllocsPerRun(20, func() { evaluate().Release() }); allocs != 0 {
		t.Errorf("a recorded evaluation on recycled storage allocated %v times per run, want 0", allocs)
	}
}

// TestWindowBoxSound is the soundness of reuse around a moved window, checked
// exhaustively on small integers: for every window w (instants included),
// every sequence of up to three supports at the banned node (empty and
// inverted ones included) and every window w2, if the box narrowed by the
// answers under w contains w2 then every one of those answers is the same
// under w2 — and w is always in its own box, or a pair could never be reused
// even around an unchanged window.
func TestWindowBoxSound(t *testing.T) {
	const n = 4 // times 0..n
	var windows, supports []simtime.Interval
	for a := simtime.Time(0); a <= n; a++ {
		for b := simtime.Time(0); b <= n; b++ {
			supports = append(supports, simtime.NewInterval(a, b))
			if a <= b {
				windows = append(windows, simtime.NewInterval(a, b))
			}
		}
	}
	// A support [a, b) stands for the copy whose Support is exactly it.
	violates := func(w, sup simtime.Interval) bool {
		c := schedule.Residency{Loc: 1, Load: sup.Start, LastService: sup.End}
		return Banned{Node: 1, Interval: w}.Violates(c, 0)
	}
	covered, outside := 0, 0
	var check func(w simtime.Interval, box windowBox, asked []simtime.Interval)
	check = func(w simtime.Interval, box windowBox, asked []simtime.Interval) {
		if !box.contains(w) {
			t.Fatalf("window %v left its own box %+v after supports %v", w, box, asked)
		}
		for _, w2 := range windows {
			if !box.contains(w2) {
				outside++
				continue
			}
			covered++
			for _, sup := range asked {
				if violates(w2, sup) != violates(w, sup) {
					t.Fatalf("box %+v of window %v after supports %v contains %v, which answers support %v differently",
						box, w, asked, w2, sup)
				}
			}
		}
		if len(asked) == 3 {
			return
		}
		for _, sup := range supports {
			next := box
			next.narrow(w, sup, violates(w, sup))
			check(w, next, append(asked, sup))
		}
	}
	for _, w := range windows {
		check(w, anyWindow, nil)
	}
	if covered == 0 || outside == 0 {
		t.Fatalf("fixture bug: %d windows inside a box and %d outside; need both", covered, outside)
	}
}

// TestViolatesNarrowsTheLog pins the wiring of the box: Ledger.Violates
// answers as Banned.Violates does; on a recording view only answers at the
// banned node narrow the log's box, a second window outside it breaks the
// log, and a ledger without a log records nothing.
func TestViolatesNarrowsTheLog(t *testing.T) {
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	base := NewLedger(topo, cat)
	base.Add(Ref{Video: 0, Index: 0}, res(0, is1, 0, 200))
	playback := cat.Video(1).Playback
	w := simtime.NewInterval(200, 250)
	bn := Banned{Node: is1, Interval: w}

	view := base.OverlayWithout(1)
	log := view.Record()
	defer log.Release()
	elsewhere := res(1, is2, 220, 230)
	if view.Violates(bn, elsewhere, playback) || log.box != anyWindow {
		t.Fatalf("a copy at another node violated the ban or narrowed the box to %+v", log.box)
	}
	before := res(1, is1, 0, 0) // support [0, playback), wholly before the window
	inside := res(1, is1, 190, 220)
	if bn.Violates(before, playback) || !bn.Violates(inside, playback) {
		t.Fatalf("fixture bug: with playback %v the two copies do not straddle the answer", playback)
	}
	for _, c := range []schedule.Residency{before, inside} {
		if got, want := view.Violates(bn, c, playback), bn.Violates(c, playback); got != want {
			t.Fatalf("Ledger.Violates(%+v) = %v, Banned.Violates = %v", c, got, want)
		}
	}
	shrunk := simtime.NewInterval(210, 240)
	if !log.Covers(w) || !log.Covers(shrunk) {
		t.Fatalf("box %+v does not cover the window it was narrowed under and a shrunken one", log.box)
	}
	early := simtime.NewInterval(50, 250)
	if log.Covers(early) {
		t.Fatalf("box %+v covers %v, under which the copy before the window violates", log.box, early)
	}
	if !log.Replay(base) {
		t.Fatal("a log with ban answers only does not replay")
	}
	view.Violates(Banned{Node: is1, Interval: early}, inside, playback)
	if log.Replay(base) {
		t.Fatal("a second window outside the box left the log replayable")
	}

	if base.Violates(bn, inside, playback) != bn.Violates(inside, playback) || base.log != nil {
		t.Fatal("a ledger without a log answered differently or grew one")
	}
}

// TestProbeLogFootprint pins what a log costs, in the style of
// TestOverlayDeltaSizedByMaskedVideo: the layout decides whether reuse is
// a net saving (a paced-epoch evaluation logs ~230 probes against ~14 KB
// of its own allocations), so a probe stays within 32 bytes, the window box
// costs 32 bytes per log and nothing per probe, and a cold 200-probe log
// asked against one unchanged delta stays within 8 KB of probes and
// bookkeeping plus the one event chunk its copy of that delta takes;
// released storage serves the next log without allocating.
func TestProbeLogFootprint(t *testing.T) {
	if got := unsafe.Sizeof(probe{}); got > 32 {
		t.Fatalf("probe is %d bytes, want <= 32", got)
	}
	if got := unsafe.Sizeof(windowBox{}); got != 32 {
		t.Fatalf("the window box is %d bytes, want 32", got)
	}
	topo, cat := fixture(t)
	is1 := topology.NodeID(1)
	base := NewLedger(topo, cat)
	base.Add(Ref{Video: 0, Index: 0}, res(0, is1, 0, 200))
	base.Add(Ref{Video: 1, Index: 0}, res(1, is1, 50, 120))

	// cost is the bytes one 200-probe log allocates, on an emptied free
	// list when cold. The runtime's own bookkeeping can land in the window
	// and only ever adds — restarting the world after ReadMemStats
	// sometimes has to start a thread, 5 KB once per process — so the least
	// of three attempts is the log's.
	cost := func(cold bool) uint64 {
		least := ^uint64(0)
		for attempt := 0; attempt < 3; attempt++ {
			if cold {
				logPool.Lock()
				logPool.chunks, logPool.events, logPool.logs = nil, nil, nil
				logPool.Unlock()
			}
			view := base.OverlayWithout(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			log := view.Record()
			for i := 0; i < 200; i++ {
				view.CanFitExcluding(res(1, is1, simtime.Time(i), simtime.Time(i+40)), nil)
			}
			runtime.ReadMemStats(&after)
			if log.n != 200 || len(log.deltas) != 1 || len(log.events) != 1 {
				t.Fatalf("%d probes logged against %d copies in %d chunks, want 200 against 1 in 1",
					log.n, len(log.deltas), len(log.events))
			}
			log.Release()
			view.Release()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const budget = 8<<10 + uint64(unsafe.Sizeof(eventChunk{}))
	if cold := cost(true); cold >= budget {
		t.Errorf("a cold 200-probe log allocated %d bytes, want < %d (8 KB and one event chunk)", cold, budget)
	}
	if warm := cost(false); warm != 0 {
		t.Errorf("a 200-probe log on recycled storage allocated %d bytes, want 0", warm)
	}
}
