package gateway_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// The placement policy study: all three policies drive the same seeded,
// regionally-skewed workload through identical 3-shard tiers and the
// shed (429) counts are compared.
//
// The collision source is epoch management itself. Each shard runs with
// two admission slots and no wait queue — one slot's worth of headroom
// for the scheduler, one for intake — and the gateway auto-closes a
// shard's epoch when its trigger fires, so for the length of a scheduler
// run an advance occupies one of the two slots. Locality pins each
// region's worker to its own shard: a shard's intake is then one
// sequential stream plus its own advance, which fits the two slots
// exactly, so locality never sheds. Least-loaded sees the in-flight
// advance in the live Outstanding counter and steers around it. Only
// round-robin keeps routing everyone into the advancing shard — a third
// request stacked onto (advance + in-flight submit) is shed with 429.
const studyShards = 3

func studyRig(t *testing.T) *testutil.Rig {
	t.Helper()
	// Sized so an epoch close is real work: a deep request stream makes
	// each advance hold an admission slot for a measurable scheduler run,
	// which is the window reservations collide with.
	// Locality 0.8 gives the regionally skewed demand the study needs:
	// each neighborhood's Zipf ranking is permuted per storage, so every
	// region hammers its own hot slice of the catalog.
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 30,
		CapacityGB: 6, RequestsPerUser: 40, Seed: 11, Locality: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

type policyRun struct {
	stats gateway.StatsResponse
	adv   gateway.AdvanceResponse
}

func TestPlacementPolicyStudy(t *testing.T) {
	// The harness is in-process, so placement, workers, and shard
	// schedulers share the runtime. On a single-CPU host a CPU-bound
	// epoch close below Go's ~10ms async-preemption threshold runs to
	// completion before any worker goroutine is scheduled again — no
	// request can ever arrive while the slot is held, and the tier looks
	// contention-free no matter the policy. Widening GOMAXPROCS lets the
	// kernel timeslice the advance against the workers, restoring the
	// overlap a real multi-host deployment has.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rig := studyRig(t)
	regions := topology.UserRegions(rig.Topo, studyShards)

	reqs := append(workload.Set(nil), rig.Requests...)
	lo, hi := reqs.Window()

	// Partition into per-region worker streams, sliced into arrival waves.
	// Workers barrier between waves, so no straggler is ever more than one
	// wave behind — which is why AdvanceLag = one wave width guarantees
	// zero late arrivals.
	const waves = 6
	width := hi.Sub(lo)/waves + 1
	byWave := make([][][]workload.Request, studyShards)
	for reg := range byWave {
		byWave[reg] = make([][]workload.Request, waves)
	}
	for _, q := range reqs {
		w := int(q.Start.Sub(lo) / width)
		if w >= waves {
			w = waves - 1
		}
		reg := regions[q.User]
		byWave[reg][w] = append(byWave[reg][w], q)
	}
	for reg := range byWave {
		for w := range byWave[reg] {
			workload.SortChronological(byWave[reg][w])
		}
	}

	shed := make(map[string]uint64)
	for _, policy := range []string{"round-robin", "least-loaded", "locality"} {
		run := runPolicy(t, rig, policy, byWave, width, hi)
		shed[policy] = run.stats.Shed
		routed := ""
		advances, advMS := uint64(0), int64(0)
		for _, row := range run.stats.Shards {
			routed += fmt.Sprintf(" %s=%d", row.ID, row.Routed)
			advances += row.Advances
			advMS += row.AdvanceMS
		}
		avg := float64(0)
		if advances > 0 {
			avg = float64(advMS) / float64(advances)
		}
		t.Logf("%-12s shed=%-4d routed:%s  advances=%d avg_advance=%.1fms final_epoch_lag=%dms",
			policy, run.stats.Shed, routed, advances, avg, run.adv.LagMS)
	}

	if shed["round-robin"] == 0 {
		t.Fatal("round-robin shed nothing — the study applied no overload pressure, so the comparison is vacuous")
	}
	if shed["least-loaded"] >= shed["round-robin"] {
		t.Errorf("least-loaded shed %d >= round-robin %d; live-counter routing should avoid advancing shards",
			shed["least-loaded"], shed["round-robin"])
	}
	if shed["locality"] >= shed["round-robin"] {
		t.Errorf("locality shed %d >= round-robin %d; region pinning should avoid cross-worker collisions",
			shed["locality"], shed["round-robin"])
	}
}

// runPolicy drives the skewed workload through a fresh 3-shard tier
// under one placement policy and returns the gateway's final view.
func runPolicy(t *testing.T, rig *testutil.Rig, policyName string, byWave [][][]workload.Request, width simtime.Duration, end simtime.Time) policyRun {
	t.Helper()
	var shards []gateway.ShardConfig
	for i := 0; i < studyShards; i++ {
		url, _, _ := startShard(t, rig, server.Options{
			MaxInFlight: 2, MaxQueue: -1,
			Horizon: horizon.Config{EpochRequests: 8},
		})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
	}
	policy, err := gateway.ParsePlacement(policyName)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startGateway(t, gateway.Config{
		Shards: shards,
		Policy: policy,
		Topo:   rig.Topo,
		// The gateway absorbs shard 429s: it spins against the chosen shard
		// on a sub-millisecond cadence until the advance releases the slot.
		// Every rejected attempt counts in the shard's shed total — the
		// study's measure of how often a policy routed into a busy shard.
		Retry:       retryhttp.Options{MaxAttempts: 500, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond},
		AutoAdvance: true,
		AdvanceLag:  width,
	})

	workerRetry := retryhttp.Options{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	ctx := context.Background()
	for w := range byWave[0] {
		var wg sync.WaitGroup
		errc := make(chan error, studyShards)
		for reg := 0; reg < studyShards; reg++ {
			batch := byWave[reg][w]
			if len(batch) == 0 {
				continue
			}
			wg.Add(1)
			go func(batch []workload.Request) {
				defer wg.Done()
				for _, q := range batch {
					at := q.Start
					err := retryhttp.PostJSON(ctx, workerRetry, base+"/v1/reservations",
						server.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start, At: &at}, nil)
					if err != nil {
						select {
						case errc <- fmt.Errorf("submit (user %d, %v): %w", q.User, q.Start, err):
						default:
						}
						return
					}
				}
			}(batch)
		}
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("%s wave %d: %v", policyName, w, err)
		default:
		}
	}

	// Close the tail: one broadcast advance past every start commits all
	// remaining pending reservations on every shard.
	var run policyRun
	if err := retryhttp.PostJSON(ctx, workerRetry, base+"/v1/advance",
		server.AdvanceRequest{To: end.Add(simtime.Hour)}, &run.adv); err != nil {
		t.Fatalf("%s: final advance: %v", policyName, err)
	}
	var plan gateway.PlanResponse
	if err := retryhttp.GetJSON(ctx, workerRetry, base+"/v1/plan", &plan); err != nil {
		t.Fatalf("%s: plan: %v", policyName, err)
	}
	if plan.Pending != 0 {
		t.Fatalf("%s: %d reservations still pending after the final advance", policyName, plan.Pending)
	}
	if err := retryhttp.GetJSON(ctx, workerRetry, base+"/v1/stats", &run.stats); err != nil {
		t.Fatalf("%s: stats: %v", policyName, err)
	}
	return run
}
