package gateway_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// Every shard plans against the full capacity of every storage, so each
// shard's committed plan is overflow-free while the merged plan need not be.
// Over three seeds of a rig tight enough that the shards' SORP runs, and every
// placement policy, each shard's plan must hold no overflow; the merged plan's
// overflows and largest excess are logged, the numbers a per-shard capacity
// budget must bring to zero. With one submit at a time every shard ties under
// least-loaded, which rotates among ties: it routes like round-robin, and its
// merged plan is round-robin's.
func TestMergedPlanCapacity(t *testing.T) {
	resolved, merged, worst := 0, 0, 0.0
	for seed := int64(1); seed <= 3; seed++ {
		r, err := testutil.Build(testutil.Params{
			Storages: 6, UsersPerStorage: 4, Titles: 12,
			CapacityGB: 3, RequestsPerUser: 8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs := append(workload.Set(nil), r.Requests...)
		workload.SortChronological(reqs)
		for _, policy := range []string{"round-robin", "least-loaded", "locality", "hash"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
				place, err := gateway.ParsePlacement(policy)
				if err != nil {
					t.Fatal(err)
				}
				var shards []gateway.ShardConfig
				for i := 0; i < 3; i++ {
					url, _, _ := startShard(t, r, server.Options{})
					shards = append(shards, gateway.ShardConfig{Primary: url})
				}
				_, base := startGateway(t, gateway.Config{Shards: shards, Policy: place, Topo: r.Topo, Retry: fastRetry})
				routed := make(map[string]int)
				for _, req := range reqs {
					routed[submit(t, base, req).Shard]++
				}
				ctx := context.Background()
				var adv gateway.AdvanceResponse
				if err := retryhttp.PostJSON(ctx, fastRetry, base+"/v1/advance",
					api.AdvanceRequest{To: reqs[len(reqs)-1].Start.Add(simtime.Hour)}, &adv); err != nil {
					t.Fatal(err)
				}
				if adv.Admitted != len(reqs) {
					t.Fatalf("advance admitted %d, want %d", adv.Admitted, len(reqs))
				}

				for i, sc := range shards {
					var plan api.PlanResponse
					if err := retryhttp.GetJSON(ctx, fastRetry, sc.Primary+"/v1/plan", &plan); err != nil {
						t.Fatal(err)
					}
					if ovs := scheduler.Overflows(r.Topo, r.Catalog, plan.Schedule); len(ovs) > 0 {
						t.Errorf("shard %d commits a plan with %d overflows, the first %v", i, len(ovs), ovs[0])
					}
				}
				var plan gateway.PlanResponse
				if err := retryhttp.GetJSON(ctx, fastRetry, base+"/v1/plan", &plan); err != nil {
					t.Fatal(err)
				}
				if err := plan.Schedule.Validate(r.Topo, r.Catalog, reqs); err != nil {
					t.Fatalf("merged plan invalid: %v", err)
				}
				ovs := scheduler.Overflows(r.Topo, r.Catalog, plan.Schedule)
				excess := 0.0
				for _, o := range ovs {
					excess = max(excess, o.Excess)
				}
				t.Logf("routed %v; merged plan: %d overflows, largest excess %.2f GB", routed, len(ovs), excess/1e9)
				resolved += adv.Overflows
				merged += len(ovs)
				worst = max(worst, excess)
			})
		}
	}
	if resolved == 0 {
		t.Fatal("fixture bug: no shard's phase 1 overflowed, so no SORP ran")
	}
	t.Logf("all runs: %d merged-plan overflows, largest excess %.2f GB", merged, worst/1e9)
}
