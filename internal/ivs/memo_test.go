package ivs

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// memoRig is a tight paper rig's phase 1: every file scheduled alone, and the
// ledger of them all, whose storages overflow — near-full storages, as the
// rejective greedy meets them in SORP.
type memoRig struct {
	m       *cost.Model
	byVideo map[media.VideoID][]workload.Request
	videos  []media.VideoID
	base    *occupancy.Ledger
	ovs     []occupancy.Overflow
}

func newMemoRig(t testing.TB, seed int64, capacity units.Bytes) *memoRig {
	t.Helper()
	rig, err := testutil.NewPaperRig(8, 6, 16, capacity, pricing.PerGBHour(2), testutil.CentsPerMbit(0.15), seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r := &memoRig{m: rig.Model, byVideo: reqs.ByVideo(), videos: reqs.Videos()}
	s := schedule.New()
	for _, vid := range r.videos {
		fs, err := ScheduleFile(r.m, vid, r.byVideo[vid], Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fs)
	}
	r.base = occupancy.FromSchedule(rig.Topo, rig.Catalog, s)
	r.ovs = r.base.AllOverflows()
	return r
}

// ban returns the first overflow a copy of the video is caught in, as SORP
// would ban it, or the vid-th overflow when none is.
func (r *memoRig) ban(vid media.VideoID) []occupancy.Banned {
	if len(r.ovs) == 0 {
		return nil
	}
	for _, of := range r.ovs {
		for _, ref := range r.base.OverflowSet(nil, of.Node, of.Interval) {
			if ref.Video == vid {
				return []occupancy.Banned{{Node: of.Node, Interval: of.Interval}}
			}
		}
	}
	of := r.ovs[int(vid)%len(r.ovs)]
	return []occupancy.Banned{{Node: of.Node, Interval: of.Interval}}
}

// evaluation is one rejective run of a video on a view of a rig's ledger.
type evaluation struct {
	name string
	vid  media.VideoID
	reqs []workload.Request
	opts Options
}

// evaluations lists, per video, the three shapes a rejective run takes in
// SORP: the whole file under a ban, its second half on a frozen prefix of the
// first, and the whole file beside a standing seed.
func (r *memoRig) evaluations(t testing.TB) []evaluation {
	t.Helper()
	var evs []evaluation
	storages := r.m.Book().Topology().Storages()
	for _, vid := range r.videos {
		rs := r.byVideo[vid]
		banned := r.ban(vid)
		evs = append(evs, evaluation{"banned", vid, rs, Options{Banned: banned}})
		if half := len(rs) / 2; half > 0 {
			prefix, err := ScheduleFile(r.m, vid, rs[:half], Options{})
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, evaluation{"frozen", vid, rs[half:], Options{Banned: banned, Frozen: prefix}})
		}
		seed := schedule.Residency{Video: vid, Loc: storages[int(vid)%len(storages)], Src: r.m.Book().Topology().Warehouse(),
			LastService: simtime.Time(4 * simtime.Hour), FedBy: schedule.PrePlacedFeed}
		evs = append(evs, evaluation{"seeded", vid, rs, Options{Banned: banned, Seeds: []schedule.Residency{seed}}})
	}
	return evs
}

// run evaluates e on a fresh view of the rig's ledger with the workspace
// given and returns the result's bytes.
func (r *memoRig) run(t testing.TB, e evaluation, ws *Workspace) []byte {
	t.Helper()
	view := r.base.OverlayWithout(e.vid)
	defer view.Release()
	opts := e.opts
	opts.Ledger, opts.Workspace = view, ws
	fs, err := ScheduleFile(r.m, e.vid, e.reqs, opts)
	if err != nil {
		t.Fatalf("%s video %d: %v", e.name, e.vid, err)
	}
	b, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memoCases counts the skips a run of the refusal memo made, by what refused
// the copy first.
type memoCases struct {
	ban, capacity, frozen, skips int
}

// TestRefusalStaysRefused holds the rejective greedy's refusal memo to what
// it claims: a copy refused for good is refused again by every later request
// of the run. On tight seeded rigs every file is evaluated as SORP evaluates
// it — on a view of the phase-1 ledger, under a ban of an overflow it is
// caught in, whole, on a frozen prefix, and beside a standing seed — and
// every copy the memo passes over is asked about on the live view at that
// moment: the ban or the capacity must refuse it. Each run's bytes must be
// those of the reference run, which asks every question a run without the
// memo asks, whether the run is watched or runs with no hooks at all. The run
// must skip copies first refused by a ban, by capacity, and frozen-prefix
// copies.
func TestRefusalStaysRefused(t *testing.T) {
	t.Run("margin", testRefusalWithinMargin)
	var cs memoCases
	for seed := int64(1); seed <= 8; seed++ {
		r := newMemoRig(t, seed, units.GBf(2.5))
		for _, e := range r.evaluations(t) {
			playback := r.m.Catalog().Video(e.vid).Playback
			ws := watched(&hooks{skipped: func(opts Options, c schedule.Residency, ref occupancy.Ref) {
				cs.skips++
				if ref.Index < opts.frozenRes {
					cs.frozen++
				}
				if violatesAny(opts, c, playback) {
					cs.ban++
				} else if opts.Ledger.CanFitExcluding(c, &ref) {
					t.Errorf("seed %d, %s video %d: the memo passed over copy %d, which the live view now admits extended to %d",
						seed, e.name, e.vid, ref.Index, c.LastService)
				} else {
					cs.capacity++
				}
			}})
			want := r.run(t, e, reasking())
			for _, run := range []struct {
				name string
				ws   *Workspace
			}{{"watched", ws}, {"unhooked", nil}} {
				if got := r.run(t, e, run.ws); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s video %d: with the memo (%s)\n%s\nasking every question\n%s", seed, e.name, e.vid, run.name, got, want)
				}
			}
		}
	}
	t.Logf("%+v", cs)
	if cs.ban == 0 || cs.capacity == 0 || cs.frozen == 0 {
		t.Fatalf("fixture bug: the runs skipped no copy first refused by a ban, by capacity, or of a frozen prefix: %+v", cs)
	}
}

// testRefusalWithinMargin pins the margin. On the paper's Fig. 2 line, three
// copies of another title fill IS1 to 7.5 GB, and the greedy asks twice
// whether the copy it opened there at 1:00 can stretch to a later request:
// to 2:30 (2.5 GB, for 10 GB in all) and to 4:00. With IS1 one byte short of
// 10 GB the first question is refused by less than the margin δ = C·2⁻²⁰,
// so the memo stays clear and the copy is asked about again; 20 kB short, by
// more, and the memo passes the copy over at 4:00 without asking.
func testRefusalWithinMargin(t *testing.T) {
	for _, tc := range []struct {
		short units.Bytes
		firm  bool
		asked int
		skips int
	}{
		{short: 1, firm: false, asked: 2},
		{short: 20 * units.KB, firm: true, asked: 1, skips: 1},
	} {
		m, is1, users := fig2Line(t, 10*units.GB-tc.short)
		reqs := []workload.Request{
			{User: users[0], Video: 0, Start: 0},
			{User: users[1], Video: 0, Start: simtime.Time(90 * simtime.Minute)},
			{User: users[2], Video: 0, Start: simtime.Time(180 * simtime.Minute)},
		}
		ledger := occupancy.NewLedger(m.Book().Topology(), m.Catalog())
		for i := 0; i < 3; i++ {
			ledger.Add(occupancy.Ref{Video: 1, Index: i}, schedule.Residency{Video: 1, Loc: is1, Src: m.Book().Topology().Warehouse(),
				Load: -simtime.Time(simtime.Hour), LastService: simtime.Time(48 * simtime.Hour)})
		}
		if fits, firm := ledger.FitExcluding(schedule.Residency{Video: 0, Loc: is1, LastService: simtime.Time(90 * simtime.Minute)}, nil); fits || firm != tc.firm {
			t.Fatalf("IS1 %v short of 10 GB: the stretch to 2:30 fits %v, firm %v; want a refusal, firm %v", tc.short, fits, firm, tc.firm)
		}
		asked, skipped := 0, 0
		ws := watched(&hooks{
			asked: func(c schedule.Residency, fits bool) {
				if c.Loc == is1 && c.Load == 0 {
					asked++
					if fits {
						t.Errorf("IS1 %v short: the copy at 1:00 fits extended to %d", tc.short, c.LastService)
					}
				}
			},
			skipped: func(Options, schedule.Residency, occupancy.Ref) { skipped++ },
		})
		if _, err := ScheduleFile(m, 0, reqs, Options{Ledger: ledger, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		if asked != tc.asked || skipped != tc.skips {
			t.Errorf("IS1 %v short of 10 GB: the copy at 1:00 was asked about %d times and passed over %d; want %d and %d",
				tc.short, asked, skipped, tc.asked, tc.skips)
		}
	}
}

// fig2Line builds the topology of the paper's Fig. 2 — VW—IS1—IS2, one user at
// IS1 and two at IS2 — with its rates, IS1 of the capacity given, and a
// catalog of two titles of 2.5 GB; it returns the model, IS1 and the users.
func fig2Line(t *testing.T, capacity units.Bytes) (*cost.Model, topology.NodeID, []topology.UserID) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", capacity)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, pricing.PerGBHour(1), testutil.CentsPerMbit(0.1))
	e01, _ := topo.EdgeBetween(vw, is1)
	book.SetNRate(e01, testutil.CentsPerMbit(0.2))
	users := append(append([]topology.UserID(nil), topo.UsersAt(is1)...), topo.UsersAt(is2)...)
	return cost.NewModel(book, routing.NewTable(book), cat), is1, users
}

// FuzzRefusalMemo holds the refusal memo to the reference run on the fuzzer's
// ledgers: a tight seeded rig's phase-1 ledger with copies of other titles
// added from 4-byte ops (storage, title, load, span), and one of the rig's
// evaluations on it — banned, frozen or seeded — run with the memo and asking
// every question; the two must give the same bytes.
func FuzzRefusalMemo(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 1, 10, 40, 1, 2, 30, 200})
	f.Add(int64(3), uint8(7), []byte{2, 3, 0, 255, 3, 0, 90, 120, 4, 5, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := newMemoRig(t, seed%8, units.GBf(3.5))
		evs := r.evaluations(t)
		e := evs[int(pick)%len(evs)]
		storages := r.m.Book().Topology().Storages()
		for i := 0; len(ops) >= 4; i, ops = i+1, ops[4:] {
			other := r.videos[int(ops[1])%len(r.videos)]
			if other == e.vid {
				continue
			}
			load := simtime.Time(int(ops[2])) * simtime.Time(3*simtime.Minute)
			r.base.Add(occupancy.Ref{Video: other, Index: 1000 + i}, schedule.Residency{
				Video: other, Loc: storages[int(ops[0])%len(storages)], Src: r.m.Book().Topology().Warehouse(),
				Load: load, LastService: load.Add(simtime.Duration(ops[3]) * simtime.Minute)})
		}
		if got, want := r.run(t, e, nil), r.run(t, e, reasking()); !bytes.Equal(got, want) {
			t.Fatalf("%s video %d: with the memo\n%s\nasking every question\n%s", e.name, e.vid, got, want)
		}
	})
}
