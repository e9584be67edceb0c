package ivs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// A run works in a recycled scratch and copies its result out, so a result
// must own all of its storage: runs interleaved from several goroutines —
// frozen, seeded, plain and NoCaching, short and long request lists, with a
// ledger and without — must each return the bytes the same run returns
// alone, and every earlier result must keep its bytes however many runs
// reuse the scratch after it. Every run works on one shared workspace. Before
// a run with a ledger the goroutine hands its previous result of the video
// back (Workspace.Recycle), and the run may be built in that file or in any
// other goroutine's, so only a run without a ledger,
// which never takes one, must have record arrays of exactly its size. Run
// under -race in CI: a result that aliased a scratch, or a file handed back
// while still read, would be read here while another run writes it.
func TestResultsOwnTheirStorage(t *testing.T) {
	rig, err := testutil.NewPaperRig(7, 6, 20, 6*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.15), 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	byVideo := reqs.ByVideo()
	storages := rig.Topo.Storages()

	type call struct {
		name      string
		video     media.VideoID
		reqs      []workload.Request
		opts      Options
		rejective bool // run with a ledger of its own, after handing back the video's previous result
	}
	var calls []call
	for _, vid := range reqs.Videos() {
		rs := byVideo[vid]
		half := len(rs) / 2
		prefix, err := ScheduleFile(rig.Model, vid, rs[:half], Options{})
		if err != nil {
			t.Fatal(err)
		}
		seed := schedule.Residency{Video: vid, Loc: storages[int(vid)%len(storages)], Src: rig.Topo.Warehouse(),
			LastService: simtime.Time(6 * simtime.Hour), FedBy: schedule.PrePlacedFeed}
		for _, n := range []int{len(rs), 1, half} {
			calls = append(calls,
				call{name: "plain", video: vid, reqs: rs[:n]},
				call{name: "no-caching", video: vid, reqs: rs[:n], opts: Options{Policy: NoCaching}},
				call{name: "seeded", video: vid, reqs: rs[:n], opts: Options{Seeds: []schedule.Residency{seed}}},
				call{name: "frozen", video: vid, reqs: rs[half:], opts: Options{Frozen: prefix}},
				call{name: "rejective", video: vid, reqs: rs[:n], rejective: true},
				call{name: "rejective frozen", video: vid, reqs: rs[half:], opts: Options{Frozen: prefix}, rejective: n == 1},
			)
		}
	}
	encode := func(fs *schedule.FileSchedule) []byte {
		b, err := json.Marshal(fs)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	ws := new(Workspace)
	run := func(c call) *schedule.FileSchedule {
		opts := c.opts
		opts.Workspace = ws
		if c.rejective {
			opts.Ledger = occupancy.NewLedger(rig.Topo, rig.Catalog)
		}
		fs, err := ScheduleFile(rig.Model, c.video, c.reqs, opts)
		if err != nil {
			t.Errorf("%s run of video %d: %v", c.name, c.video, err)
		}
		return fs
	}
	// What each run returns alone, on a scratch no other run is using.
	want := make([][]byte, len(calls))
	for i, c := range calls {
		want[i] = encode(run(c))
	}

	const goroutines = 4
	var wg sync.WaitGroup
	var handedBack sync.Map // every file given to Recycle, kept alive so no address repeats
	var rebuilt atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type kept struct {
				name  string
				fs    *schedule.FileSchedule
				bytes []byte
			}
			var results []kept
			last := make(map[media.VideoID]int) // index into results
			check := func(k kept) {
				if got := encode(k.fs); !bytes.Equal(got, k.bytes) {
					t.Errorf("goroutine %d: %s changed after later runs:\nwas %s\nnow %s", g, k.name, k.bytes, got)
				}
			}
			for round := 0; round < 2; round++ {
				// Each goroutine walks the calls from its own offset, so runs of
				// every kind and size interleave across goroutines.
				for j := range calls {
					i := (j + g*len(calls)/goroutines) % len(calls)
					c := calls[i]
					name := fmt.Sprintf("%s run %d of video %d (%d requests)", c.name, i, c.video, len(c.reqs))
					if k, ok := last[c.video]; ok && c.rejective && results[k].fs != nil {
						handedBack.Store(results[k].fs, true)
						ws.Recycle(results[k].fs)
						results[k].fs = nil // given away
					}
					fs := run(c)
					if fs == nil {
						return
					}
					b := encode(fs)
					if !bytes.Equal(b, want[i]) {
						t.Errorf("goroutine %d: %s differs from the same run alone:\nalone %s\nhere  %s", g, name, want[i], b)
					}
					_, recycled := handedBack.Load(fs)
					if recycled {
						rebuilt.Add(1)
					}
					if !c.rejective && (recycled || cap(fs.Deliveries) != len(fs.Deliveries) || cap(fs.Residencies) != len(fs.Residencies)) {
						t.Errorf("goroutine %d: %s has %d/%d deliveries and %d/%d residencies (len/cap), in a handed-back file: %v; want exact new arrays",
							g, name, len(fs.Deliveries), cap(fs.Deliveries), len(fs.Residencies), cap(fs.Residencies), recycled)
					}
					if n := len(results); n > 0 && results[n-1].fs != nil {
						check(results[n-1])
					}
					last[c.video] = len(results)
					results = append(results, kept{name, fs, b})
				}
			}
			for _, k := range results {
				if k.fs != nil {
					check(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if rebuilt.Load() == 0 {
		t.Fatal("fixture bug: no run was built in a handed-back file")
	}
}

// A workspace belongs to one solve from TakeWorkspace to Release: solves
// running at once, each taking a workspace, running a phase-1 file on it
// from two workers and handing it back, must never hold the same one, and
// the idle list keeps at most maxIdle of them. Run under -race in CI.
func TestConcurrentSolvesNeverShareAWorkspace(t *testing.T) {
	rig, err := testutil.NewPaperRig(7, 6, 20, 6*units.GB, pricing.PerGBHour(2), testutil.CentsPerMbit(0.15), 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{Alpha: 0.2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	byVideo := reqs.ByVideo()
	videos := reqs.Videos()
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ws := TakeWorkspace()
				if _, dup := held.LoadOrStore(ws, g); dup {
					t.Errorf("goroutine %d took a workspace another solve holds", g)
					return
				}
				vid := videos[(g+i)%len(videos)]
				var run sync.WaitGroup
				for w := 0; w < 2; w++ {
					run.Add(1)
					go func() {
						defer run.Done()
						if _, err := ScheduleFile(rig.Model, vid, byVideo[vid], Options{Workspace: ws}); err != nil {
							t.Error(err)
						}
					}()
				}
				run.Wait()
				held.Delete(ws)
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.ws); n == 0 || n > maxIdle {
		t.Errorf("%d idle workspaces after the solves, want 1 to %d", n, maxIdle)
	}
}
