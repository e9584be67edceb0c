package sorp

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// TestResolveWorkersByteIdentical is the determinism property for the
// concurrent candidate evaluation: on seeded random workloads with real
// overflow pressure, a Resolve at any GOMAXPROCS — the evaluation pool's
// size — must produce the same bytes as the sequential run (GOMAXPROCS 1):
// same resolved schedule AND the same victim
// sequence (heat, overhead, window included), since the selection walks the
// candidates in overflow/ref order with a total order regardless of which
// worker finished first. Run under -race in CI to surface clone-sharing
// races.
func TestResolveWorkersByteIdentical(t *testing.T) {
	for _, seed := range []int64{3, 11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig, err := testutil.NewPaperRig(6, 8, 12, 4*units.GB, pricing.PerGBSec(5), pricing.PerGB(500), seed)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(rig.Topo, rig.Catalog, workload.Config{
				Alpha: 0.1, Window: 6 * simtime.Hour, Seed: seed + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := schedule.New()
			for vid, rs := range reqs.ByVideo() {
				fs, err := ivs.ScheduleFile(rig.Model, vid, rs, ivs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.Put(fs)
			}
			run := func(procs int) string {
				testutil.SetProcs(t, procs)
				res, err := Resolve(rig.Model, s, reqs.ByVideo(), Options{})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				blob, err := json.Marshal(struct {
					Schedule interface{}
					Victims  []api.Victim
				}{res.Schedule, res.Victims})
				if err != nil {
					t.Fatal(err)
				}
				return string(blob)
			}
			want := run(1)
			for _, procs := range []int{2, 4} {
				if got := run(procs); got != want {
					t.Errorf("GOMAXPROCS=%d resolution differs from sequential run", procs)
				}
			}
		})
	}
}
