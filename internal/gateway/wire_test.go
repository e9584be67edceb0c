package gateway_test

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
)

// The gateway's own bodies embed or carry the shard protocol's; each encodes
// to the bytes it did when those were declared behind the shards.
func TestGatewayWireBytesUnchanged(t *testing.T) {
	work := api.Work{Iterations: 1, Evaluated: 2, Reused: 3, Rewindowed: 4}
	epoch := api.EpochResult{Epoch: 1, Horizon: 3600, Admitted: 5, Replanned: 2, FrozenDeliveries: 3,
		FrozenResidencies: 1, Overflows: 2, Resolution: work, Cost: 42.125, Victims: []api.Victim{
			{Video: 3, Node: 2, Window: simtime.NewInterval(10, 99), Heat: math.Inf(1), Overhead: 1.5},
			{Video: 4, Node: 1, Window: simtime.NewInterval(20, 40), Heat: 7.537456863276413e+10, Overhead: 1961.2111},
		}}
	plan := gateway.PlanResponse{
		PlanResponse: api.PlanResponse{Schedule: schedule.New(), PlanState: api.PlanState{Horizon: 3600, Epoch: 2, Pending: 3, Cost: 7.75}},
		Shards: []gateway.ShardPlan{
			{Shard: "s0", Epoch: 2, Horizon: 3600, Pending: 1, Cost: 3.5},
			{Shard: "s1", Epoch: 1, Horizon: 7200, Pending: 2, Cost: 4.25},
		},
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"reservation response", gateway.ReservationResponse{
			ReservationResponse: api.ReservationResponse{Accepted: true, Pending: 4, PendingBytes: 1.5e9, EpochDue: true, Trigger: "requests"},
			Shard:               "s1",
		}, `{"accepted":true,"pending":4,"pending_bytes":1500000000,"epoch_due":true,"trigger":"requests","shard":"s1"}`},
		{"advance response", gateway.AdvanceResponse{Epoch: 1, Horizon: 3600, Admitted: 5, Replanned: 2, FrozenDeliveries: 3,
			FrozenResidencies: 1, Overflows: 2, Cost: 42.125, Resolution: work,
			Shards: []gateway.ShardEpoch{{Shard: "s0", Result: epoch, ElapsedMS: 12}},
			Failed: []gateway.ShardFailure{{Shard: "s1", Error: "down", Status: 502}}, LagMS: 3,
		}, `{"epoch":1,"horizon":3600,"admitted":5,"replanned":2,"frozen_deliveries":3,"frozen_residencies":1,"overflows":2,"cost":42.125,"resolution":{"iterations":1,"evaluated":2,"reused":3,"rewindowed":4},"shards":[{"shard":"s0","result":{"epoch":1,"horizon":3600,"admitted":5,"replanned":2,"frozen_deliveries":3,"frozen_residencies":1,"overflows":2,"victims":[{"Video":3,"Node":2,"Window":{"Start":10,"End":99},"Heat":"+Inf","Overhead":1.5},{"Video":4,"Node":1,"Window":{"Start":20,"End":40},"Heat":75374568632.76413,"Overhead":1961.2111}],"resolution":{"iterations":1,"evaluated":2,"reused":3,"rewindowed":4},"cost":42.125},"elapsed_ms":12}],"failed":[{"shard":"s1","error":"down","status":502}],"lag_ms":3}`},
		{"plan response", plan,
			`{"schedule":{"files":{}},"horizon":3600,"epoch":2,"pending":3,"cost":7.75,"shards":[{"shard":"s0","epoch":2,"horizon":3600,"pending":1,"cost":3.5},{"shard":"s1","epoch":1,"horizon":7200,"pending":2,"cost":4.25}]}`},
		{"stats response", gateway.StatsResponse{Policy: "round-robin",
			Shards: []gateway.ShardStatus{{ID: "s0", Primary: "http://a", Routed: 3, Epoch: 1, Role: "primary"}},
			Routed: 3, Shed: 1, Failovers: 2, GatewayShed: 4, HealthyShards: 1, Resolution: work,
			Plan: gateway.PlanStats{Reads: 5, ShardDecodes: 2, Merges: 1},
		}, `{"policy":"round-robin","shards":[{"id":"s0","primary":"http://a","routed":3,"outstanding":0,"failovers":0,"advances":0,"advance_ms":0,"pending":0,"in_flight":0,"shed":0,"epoch":1,"role":"primary","replication_lag":0}],"routed_total":3,"shed_total":1,"failovers_total":2,"gateway_shed_total":4,"healthy_shards":1,"resolution":{"iterations":1,"evaluated":2,"reused":3,"rewindowed":4},"plan":{"reads":5,"shard_decodes":2,"merges":1}}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
