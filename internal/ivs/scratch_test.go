package ivs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// A run works in a recycled scratch and copies its result out, so a result
// must own all of its storage: runs interleaved from several goroutines —
// frozen, seeded, plain and NoCaching, short and long request lists — must
// each return the bytes the same run returns alone, every earlier result
// must keep its bytes however many runs reuse the scratch after it, and a
// result not built in a spare must have record arrays of exactly its size.
// A frozen run is sometimes handed the previous frozen result of its video
// as Spare, which gives that result away. Run under -race in CI: a result
// that aliased a scratch would be read here while another run writes it.
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
		name  string
		video media.VideoID
		reqs  []workload.Request
		opts  Options
		spare bool // hand over the video's previous frozen result as Spare
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
				call{name: "frozen", video: vid, reqs: rs[half:], opts: Options{Frozen: prefix}, spare: n == 1},
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
	run := func(c call, spare *schedule.FileSchedule) *schedule.FileSchedule {
		opts := c.opts
		opts.Spare = spare
		fs, err := ScheduleFile(rig.Model, c.video, c.reqs, opts)
		if err != nil {
			t.Errorf("%s run of video %d: %v", c.name, c.video, err)
		}
		return fs
	}
	// What each run returns alone, on a scratch no other run is using.
	want := make([][]byte, len(calls))
	for i, c := range calls {
		want[i] = encode(run(c, nil))
	}

	const goroutines = 4
	var wg sync.WaitGroup
	var spared atomic.Int64
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
			lastFrozen := make(map[media.VideoID]int) // index into results
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
					var spare *schedule.FileSchedule
					if k, ok := lastFrozen[c.video]; ok && c.spare && results[k].fs != nil {
						spare, results[k].fs = results[k].fs, nil // given away
						spared.Add(1)
					}
					fs := run(c, spare)
					if fs == nil {
						return
					}
					b := encode(fs)
					if !bytes.Equal(b, want[i]) {
						t.Errorf("goroutine %d: %s differs from the same run alone:\nalone %s\nhere  %s", g, name, want[i], b)
					}
					if spare == nil && (cap(fs.Deliveries) != len(fs.Deliveries) || cap(fs.Residencies) != len(fs.Residencies)) {
						t.Errorf("goroutine %d: %s has %d/%d deliveries and %d/%d residencies (len/cap), want exact arrays",
							g, name, len(fs.Deliveries), cap(fs.Deliveries), len(fs.Residencies), cap(fs.Residencies))
					}
					if n := len(results); n > 0 && results[n-1].fs != nil {
						check(results[n-1])
					}
					if c.opts.Frozen != nil {
						lastFrozen[c.video] = len(results)
					}
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
	if spared.Load() == 0 {
		t.Fatal("fixture bug: no run was handed a spare")
	}
}
