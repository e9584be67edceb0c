package sorp

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/testutil"
)

// rollingCase is buildReuseCase's rolling kind with each frozen prefix's
// fold, as a horizon close hands them over.
func rollingCase(t *testing.T, seed int64) *reuseCase {
	t.Helper()
	c := buildReuseCase(t, seed, 2)
	c.opts.Folds = make(map[media.VideoID]cost.Fold, len(c.opts.Frozen))
	for vid, pre := range c.opts.Frozen {
		c.opts.Folds[vid] = c.m.FoldOn(cost.Fold{}, pre.Deliveries)
	}
	return c
}

// TestResolveWorkersByteIdentical is the determinism property for the
// concurrent rounds — the replays fanned out by pair key and the fresh
// evaluations: on seeded random rigs with real overflow pressure, a Resolve
// at any GOMAXPROCS — the pool's size — must produce the same bytes as the
// sequential run (GOMAXPROCS 1): same resolved schedule, the same victim
// sequence (heat, overhead, window included) and the same work counts, since
// the selection walks the candidates in overflow/ref order with a total order
// regardless of which worker finished first, and which results are reused
// depends on the ledger's history alone. Every case resolves over several
// iterations and reuses something, so each fan-out runs. One case is a
// rolling close (Frozen and Folds), and on one seed some round has two jobs
// under one pair key — an overflow split at one storage, whose jobs share a
// log — which the test asserts happened. Run under -race in CI to surface
// races on shared views, files and logs.
func TestResolveWorkersByteIdentical(t *testing.T) {
	plain := func(seed int64) func(*testing.T) *reuseCase {
		return func(t *testing.T) *reuseCase { return buildReuseCase(t, seed, 0) }
	}
	cases := []struct {
		name  string
		build func(*testing.T) *reuseCase
		split bool // a round must have two jobs under one pair key
	}{
		{"seed=3", plain(3), false},
		{"seed=11", plain(11), false},
		{"seed=12", plain(12), false},
		{"split/seed=22", plain(22), true},
		{"rolling/seed=5", func(t *testing.T) *reuseCase { return rollingCase(t, 5) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			run := func(procs int) (string, int) {
				testutil.SetProcs(t, procs)
				shared := 0
				res, err := resolve(context.Background(), c.m, c.s, c.reqs, c.opts, func(_ *schedule.Schedule, tab *pairTable) {
					if len(tab.keyAt)-1 < len(tab.jobs) {
						shared++
					}
				})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if res.Iterations < 2 || res.Reused == 0 {
					t.Fatalf("fixture bug: work %+v; the rig must resolve over several iterations and reuse", res.Work)
				}
				blob, err := json.Marshal(struct {
					Schedule *schedule.Schedule
					Victims  []api.Victim
					Work     api.Work
				}{res.Schedule, res.Victims, res.Work})
				if err != nil {
					t.Fatal(err)
				}
				return string(blob), shared
			}
			want, shared := run(1)
			if tc.split && shared == 0 {
				t.Errorf("no round had two jobs under one pair key; pick another seed")
			}
			for _, procs := range []int{2, 4} {
				if got, _ := run(procs); got != want {
					t.Errorf("GOMAXPROCS=%d resolution differs from sequential run", procs)
				}
			}
		})
	}
}
