package occupancy

import (
	"math/rand"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// groupedScript draws a script in the rejective greedy's grouped pattern: a
// few request starts, each asked at several storages with candidates of
// several spans, and extension checks of the view's own copies at several new
// ends before one is applied — so most queries share a (storage, delta,
// start) with others, and a group's members differ in their first-instant
// value d, the excluded copy's included.
func groupedScript(rng *rand.Rand, vid media.VideoID, stores []topology.NodeID, n int) []viewOp {
	sec := simtime.Duration(simtime.Second)
	starts := make([]simtime.Time, 2+rng.Intn(4))
	for i := range starts {
		starts[i] = simtime.Time(rng.Intn(500)) * simtime.Time(sec)
	}
	var own []viewOp
	var ops []viewOp
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 7 || len(own) == 0:
			load := starts[rng.Intn(len(starts))]
			loc := stores[rng.Intn(len(stores))]
			for m := 1 + rng.Intn(4); m > 0; m-- {
				c := res(vid, loc, load, load.Add(simtime.Duration(rng.Intn(200))*sec))
				ops = append(ops, viewOp{query: true, c: c})
			}
			if k == 0 {
				op := viewOp{c: res(vid, loc, load, load.Add(simtime.Duration(rng.Intn(60))*sec)),
					ref: Ref{Video: vid, Index: len(own)}}
				own = append(own, op)
				ops = append(ops, op)
			}
		default:
			i := rng.Intn(len(own))
			var c = own[i].c
			for m := 1 + rng.Intn(3); m > 0; m-- {
				c = own[i].c
				c.LastService = c.LastService.Add(simtime.Duration(1+rng.Intn(150)) * sec)
				ops = append(ops, viewOp{query: true, c: c, ref: own[i].ref, exclude: true})
			}
			if k < 8 {
				own[i].c = c
				ops = append(ops, viewOp{c: c, ref: own[i].ref, update: true})
			}
		}
	}
	return ops
}

// reaskProbe re-asks logged probe i on base through sweepFits, as if no
// group existed.
func reaskProbe(g *ProbeLog, base *Ledger, i int) bool {
	p := g.at(i)
	gr := g.groupAt(p.group)
	v := base.catalog.Video(g.masked)
	var extra [6]event
	ne, sup := g.records(&extra, gr, p, v.Size.Float(), v.Playback)
	node := topology.NodeID(gr.node)
	fits, _ := sweepFits(base.snapshot(node), g.deltas[gr.delta], &extra, ne, sup, base.caps[node])
	return fits
}

// firstD is probe i's first-instant value d, as its live query summed it.
func firstD(g *ProbeLog, base *Ledger, i int) float64 {
	p := g.at(i)
	gr := g.groupAt(p.group)
	v := base.catalog.Video(g.masked)
	var extra [6]event
	ne, _ := g.records(&extra, gr, p, v.Size.Float(), v.Playback)
	_, x := firstRecords(&extra, ne, gr.start)
	return x.at(gr.start)
}

// groupCases counts the shapes a grouped replay has to get right.
type groupCases struct {
	smallestPasses int // a group whose least-d check passes while every "no" still holds
	decidedLater   int // a "no" that passes its own first check and still holds
	excluded       int // an extension check at a moved storage
	unmoved        int // a group at a storage that did not move
	held, broke    int
}

// checkReplay replays the log on base and compares its verdict with
// re-asking every probe through sweepFits against want, the answers the
// script got; it counts into cs the shapes the log's groups take first.
func checkReplay(t *testing.T, g *ProbeLog, base *Ledger, want []bool, cs *groupCases) {
	t.Helper()
	if g.broken || g.n != len(want) {
		t.Fatalf("the log is broken (%v) or holds %d probes for %d queries", g.broken, g.n, len(want))
	}
	answers := make([]bool, g.n)
	holds := true
	for i := range answers {
		answers[i] = reaskProbe(g, base, i)
		holds = holds && answers[i] == want[i]
	}
	for gi := 0; gi < g.ngroups; gi++ {
		gr := g.groupAt(uint32(gi))
		if gr.head == 0 {
			continue
		}
		node := topology.NodeID(gr.node)
		if base.nodes[node].ver == g.vers[node] {
			cs.unmoved++
			continue
		}
		var s sweep
		s.enter(base.snapshot(node), g.deltas[gr.delta], gr.start)
		stand := true
		for k := gr.head; k != 0; k = g.at(int(k - 1)).next {
			i := int(k - 1)
			p := g.at(i)
			stand = stand && !answers[i]
			if p.exclLast >= 0 {
				cs.excluded++
			}
			if !s.over(firstD(g, base, i), gr.start, base.caps[node]) && !answers[i] {
				cs.decidedLater++
			}
		}
		if stand && !s.over(gr.minD, gr.start, base.caps[node]) {
			cs.smallestPasses++
		}
	}
	if got := g.Replay(base); got != holds {
		t.Fatalf("the grouped replay says %v, re-asking every probe through sweepFits says %v", got, holds)
	}
	if holds {
		cs.held++
	} else {
		cs.broke++
	}
}

// mutateBase moves the base under a log with the ops read from b: another
// video's copy added at a storage — mostly short, so most answers stand — or
// all its copies removed.
func mutateBase(base *Ledger, masked media.VideoID, stores []topology.NodeID, b []byte, next *int) {
	for len(b) >= 4 {
		other := media.VideoID((int(masked) + 1 + int(b[1])%5) % 6)
		load := simtime.Time(int(b[2])*2) * simtime.Time(simtime.Second)
		span := simtime.Duration(int(b[3])%16) * simtime.Second
		if b[3] >= 224 {
			span = simtime.Duration(int(b[3])) * simtime.Second
		}
		switch b[0] % 4 {
		case 0:
			base.RemoveVideo(other)
		default:
			base.Add(Ref{Video: other, Index: *next}, res(other, stores[int(b[0]/4)%len(stores)], load, load.Add(span)))
			*next++
		}
		b = b[4:]
	}
}

// TestGroupedReplayIsTheSweep holds the grouped ProbeLog.Replay to asking
// every logged probe again through sweepFits: on seeded random ledgers, logs
// of the greedy's grouped pattern are recorded, the base is moved under them
// round after round, and each replay's verdict must be re-asking's. The run
// must meet every shape the group check has to get right: a group whose
// least d passes its first check while every "no" of it stands, a "no"
// decided after the first instant, an excluded copy, a storage that did not
// move, and replays that hold and that break.
func TestGroupedReplayIsTheSweep(t *testing.T) {
	t.Run("pinned", testGroupedReplayPinned)
	var cs groupCases
	for seed := int64(0); seed < 40; seed++ {
		_, base, _, topo := randomLedgers(t, seed, 6, 60)
		rng := rand.New(rand.NewSource(seed ^ 0x61c8))
		stores := topo.Storages()
		vid := media.VideoID(rng.Intn(6))
		view := base.OverlayWithout(vid)
		log := view.Record()
		want := runScript(view, groupedScript(rng, vid, stores, 120), nil)
		view.Release()
		next := 1000
		for round := 0; round < 6; round++ {
			ops := make([]byte, 4*(1+rng.Intn(3)))
			rng.Read(ops)
			if rng.Intn(3) == 0 {
				ops[0] = 1 + 4*byte(rng.Intn(2)) // one storage of the first two moves
				ops = ops[:4]
			}
			mutateBase(base, vid, stores, ops, &next)
			checkReplay(t, log, base, want, &cs)
		}
		log.Release()
	}
	t.Logf("%+v", cs)
	if cs.smallestPasses == 0 || cs.decidedLater == 0 || cs.excluded == 0 || cs.unmoved == 0 || cs.held == 0 || cs.broke == 0 {
		t.Fatalf("fixture bug: a shape the grouped replay must meet did not occur: %+v", cs)
	}
}

// testGroupedReplayPinned holds three replays on a storage of 1 500 B to
// re-asking, each a shape a random log meets only among many other answers.
// Two copies of 1 000 B fill it at second 100 when the log is recorded, so a
// candidate there of 20 s (d = 200) and one of 80 s (d = 800) are both "no"
// at their start, the second heading the group's chain; one candidate of
// 20 s on an empty storage is a "yes". Replays then follow three moves. An
// unrelated copy far ahead: every answer stands. One copy leaves: the 20 s
// candidate fits, and only the group's least d finds it — the chain's head
// still overflows at its start, and a sweep entry kept from the replay before
// still sees the copy that left. The empty storage fills: the "yes" turns.
func testGroupedReplayPinned(t *testing.T) {
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	base := NewLedger(topo, cat)
	base.Add(Ref{Video: 0, Index: 0}, res(0, is1, 0, 1000))
	base.Add(Ref{Video: 0, Index: 1}, res(0, is1, 50, 1000))
	view := base.OverlayWithout(1)
	log := view.Record()
	want := []bool{
		view.CanFitExcluding(res(1, is1, 100, 120), nil),
		view.CanFitExcluding(res(1, is1, 100, 180), nil),
		view.CanFitExcluding(res(1, is2, 100, 120), nil),
	}
	view.Release()
	defer log.Release()
	if want[0] || want[1] || !want[2] || log.ngroups != 2 || log.groupAt(0).minD != 200 || firstD(log, base, int(log.groupAt(0).head-1)) != 800 {
		t.Fatalf("fixture bug: answers %v in %d groups, the first's least d %v", want, log.ngroups, log.groupAt(0).minD)
	}
	var cs groupCases
	far := simtime.Time(100 * simtime.Hour)
	base.Add(Ref{Video: 0, Index: 2}, res(0, is1, far, far.Add(simtime.Hour)))
	checkReplay(t, log, base, want, &cs)
	base.Update(Ref{Video: 0, Index: 1}, res(0, is1, far, far))
	checkReplay(t, log, base, want, &cs)
	base.Update(Ref{Video: 0, Index: 1}, res(0, is1, 50, 1000))
	checkReplay(t, log, base, want, &cs)
	base.Add(Ref{Video: 0, Index: 3}, res(0, is2, 0, 1000))
	base.Add(Ref{Video: 0, Index: 4}, res(0, is2, 0, 1000))
	checkReplay(t, log, base, want, &cs)
	if cs.held != 2 || cs.broke != 2 {
		t.Fatalf("fixture bug: %d replays held and %d broke, want 2 and 2", cs.held, cs.broke)
	}
}

// FuzzGroupedReplay is TestGroupedReplayIsTheSweep on the fuzzer's ledgers,
// scripts and base moves: a seed for the ledger and the script, and the
// moves as 4-byte ops, replayed after each.
func FuzzGroupedReplay(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3, 4, 0, 1, 9, 9})
	f.Add(int64(7), []byte{5, 0, 40, 200, 9, 3, 10, 250, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		_, base, _, topo := randomLedgers(t, seed, 6, 60)
		rng := rand.New(rand.NewSource(seed))
		stores := topo.Storages()
		vid := media.VideoID(rng.Intn(6))
		view := base.OverlayWithout(vid)
		log := view.Record()
		want := runScript(view, groupedScript(rng, vid, stores, 60), nil)
		view.Release()
		defer log.Release()
		var cs groupCases
		next := 1000
		for len(ops) >= 4 {
			mutateBase(base, vid, stores, ops[:4], &next)
			checkReplay(t, log, base, want, &cs)
			ops = ops[4:]
		}
	})
}

// TestReplayAsksEachGroupOnce pins what the grouping saves: a log whose
// "no" answers are all decided at their start, by many candidates sharing a
// few (storage, delta, start) groups, replayed after every storage moved
// without changing an answer, enters the sweep once per group and runs no
// full sweep.
func TestReplayAsksEachGroupOnce(t *testing.T) {
	topo, cat := fixture(t)
	stores := topo.Storages()
	base := NewLedger(topo, cat)
	for i, n := range stores {
		base.Add(Ref{Video: 0, Index: i}, res(0, n, 0, 2000))
	}
	view := base.OverlayWithout(1)
	log := view.Record()
	probes := 0
	for _, n := range stores {
		for _, at := range []simtime.Time{100, 400, 700} {
			for span := simtime.Duration(60); span <= 300; span += 40 {
				if view.CanFitExcluding(res(1, n, at, at.Add(span)), nil) {
					t.Fatalf("a copy of %v at storage %d beside a full one fits", span, n)
				}
				probes++
			}
		}
	}
	view.Release()
	defer log.Release()
	if want := len(stores) * 3; log.ngroups != want || log.n != probes || log.yes != 0 {
		t.Fatalf("%d probes in %d groups, %d of them yes; want %d in %d, none", log.n, log.ngroups, log.yes, probes, want)
	}
	far := simtime.Time(100 * simtime.Hour)
	for i, n := range stores {
		base.Add(Ref{Video: 0, Index: 100 + i}, res(0, n, far, far.Add(simtime.Hour)))
	}
	if !log.Replay(base) {
		t.Fatal("a replay broke; the moves leave every answer as it was")
	}
	if log.entered != log.ngroups || log.swept != 0 {
		t.Fatalf("the replay entered the sweep %d times and ran %d full sweeps over %d groups of %d probes; want %d and 0",
			log.entered, log.swept, log.ngroups, log.n, log.ngroups)
	}
}
