package api

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// goldenWork and goldenEpoch are the fixtures the golden bodies below were
// encoded from, when these bodies were still declared in internal/server,
// internal/horizon, internal/sorp and a replication package of their own.
var (
	goldenWork  = Work{Iterations: 1, Evaluated: 2, Reused: 3, Rewindowed: 4}
	goldenEpoch = EpochResult{Epoch: 1, Horizon: 3600, Admitted: 5, Replanned: 2, FrozenDeliveries: 3,
		FrozenResidencies: 1, Overflows: 2, Resolution: goldenWork, Cost: 42.125, Victims: []Victim{
			{Video: 3, Node: 2, Window: simtime.NewInterval(10, 99), Heat: math.Inf(1), Overhead: 1.5},
			{Video: 4, Node: 1, Window: simtime.NewInterval(20, 40), Heat: 7.537456863276413e+10, Overhead: 1961.2111},
		}}
)

// Every body of the shard protocol encodes to the bytes it did before it
// moved here: field names, order, omitempty and the victims' heat.
func TestWireBytesUnchanged(t *testing.T) {
	at := simtime.Time(1800)
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"reservation request", ReservationRequest{User: 3, Video: 7, Start: 3600, At: &at},
			`{"user":3,"video":7,"start":3600,"at":1800}`},
		{"reservation request without at", ReservationRequest{User: 3, Video: 7, Start: 3600},
			`{"user":3,"video":7,"start":3600}`},
		{"reservation response", ReservationResponse{Accepted: true, Pending: 4, PendingBytes: 1.5e9, EpochDue: true, Trigger: "requests"},
			`{"accepted":true,"pending":4,"pending_bytes":1500000000,"epoch_due":true,"trigger":"requests"}`},
		{"reservation response without trigger", ReservationResponse{Accepted: true, Pending: 1, PendingBytes: 2.25e9},
			`{"accepted":true,"pending":1,"pending_bytes":2250000000,"epoch_due":false}`},
		{"advance request", AdvanceRequest{To: 7200}, `{"to":7200}`},
		{"plan response", PlanResponse{Schedule: schedule.New(), PlanState: PlanState{Horizon: 7200, Epoch: 3, Pending: 2, Cost: 12.5}},
			`{"schedule":{"files":{}},"horizon":7200,"epoch":3,"pending":2,"cost":12.5}`},
		{"stats response", StatsResponse{
			Topology: topology.Stats{Nodes: 7, Storages: 2, Links: 2, Users: 4, Diameter: 2, AvgHops: 1, MaxDegree: 2, Leaves: 2},
			Titles:   5, MeanSize: 2500000000,
			Horizon: HorizonStats{Epoch: 2, Horizon: 3600, Pending: 1, CommittedCost: 9.25, Durable: true,
				Advances: 2, AdvanceMS: 15, Resolution: goldenWork},
			Overload: OverloadStats{Shed: 1, InFlight: 2, MaxInFlight: 64, DeadlineExceeded: 3},
			Recovery: RecoveryStats{Recovered: true, SnapshotLoaded: true, ReplayedSubmits: 4, ReplayedAdvances: 2,
				TailTruncated: true, TailTruncations: 1, SnapshotFailures: 5},
			Replication: ReplicationStatus{Role: "follower", Epoch: 2, AppliedSeq: 10, Source: "http://a", PrimaryLastSeq: 12,
				Lag: 2, Synced: true, RecordsApplied: 9, SnapshotsInstalled: 1, LastError: "x"},
			Shard: ShardInfo{ID: "s1", Role: "follower", Epoch: 2, LeadershipEpoch: 2, ReplicationLag: 2},
		}, `{"topology":{"Nodes":7,"Storages":2,"Links":2,"Users":4,"Diameter":2,"AvgHops":1,"MaxDegree":2,"Leaves":2},"titles":5,"mean_title_bytes":2500000000,"horizon":{"epoch":2,"horizon":3600,"pending":1,"committed_cost":9.25,"durable":true,"advances":2,"advance_ms":15,"resolution":{"iterations":1,"evaluated":2,"reused":3,"rewindowed":4}},"overload":{"shed":1,"in_flight":2,"max_in_flight":64,"deadline_exceeded":3},"recovery":{"recovered":true,"snapshot_loaded":true,"replayed_submits":4,"replayed_advances":2,"tail_truncated":true,"tail_truncations":1,"snapshot_failures":5},"replication":{"role":"follower","epoch":2,"applied_seq":10,"source":"http://a","primary_last_seq":12,"lag":2,"synced":true,"caught_up":false,"records_applied":9,"snapshots_installed":1,"last_error":"x"},"ready":false,"shard":{"id":"s1","role":"follower","epoch":2,"leadership_epoch":2,"replication_lag":2}}`},
		{"promote request", PromoteRequest{Force: true, FenceSource: true}, `{"force":true,"fence_source":true}`},
		{"empty promote request", PromoteRequest{}, `{}`},
		{"promote response", PromoteResponse{Promoted: true, Epoch: 3, AppliedSeq: 11, SourceFenced: true, SourceFenceError: "e"},
			`{"promoted":true,"epoch":3,"applied_seq":11,"source_fenced":true,"source_fence_error":"e"}`},
		{"epoch result", goldenEpoch,
			`{"epoch":1,"horizon":3600,"admitted":5,"replanned":2,"frozen_deliveries":3,"frozen_residencies":1,"overflows":2,"victims":[{"Video":3,"Node":2,"Window":{"Start":10,"End":99},"Heat":"+Inf","Overhead":1.5},{"Video":4,"Node":1,"Window":{"Start":20,"End":40},"Heat":75374568632.76413,"Overhead":1961.2111}],"resolution":{"iterations":1,"evaluated":2,"reused":3,"rewindowed":4},"cost":42.125}`},
		{"epoch result without victims", EpochResult{Horizon: 60, Admitted: 1, Cost: 0.5},
			`{"epoch":0,"horizon":60,"admitted":1,"replanned":0,"frozen_deliveries":0,"frozen_residencies":0,"overflows":0,"resolution":{"iterations":0,"evaluated":0,"reused":0,"rewindowed":0},"cost":0.5}`},
		{"primary status", ReplicationStatus{Role: RolePrimary, Epoch: 1, AppliedSeq: 3, Synced: true, CaughtUp: true},
			`{"role":"primary","epoch":1,"applied_seq":3,"lag":0,"synced":true,"caught_up":true,"records_applied":0,"snapshots_installed":0}`},
		{"fence request", FenceRequest{Epoch: 3}, `{"epoch":3}`},
		{"fence response", FenceResponse{Fenced: true, Epoch: 3}, `{"fenced":true,"epoch":3}`},
		{"batch of records", Batch{LeaderEpoch: 2, LastSeq: 9, Records: []Record{{Seq: 8, CRC: 4022250974, Payload: []byte(`{"op":"submit"}`)}}},
			`{"leader_epoch":2,"last_seq":9,"records":[{"seq":8,"crc":4022250974,"payload":"eyJvcCI6InN1Ym1pdCJ9"}]}`},
		{"batch with a snapshot", Batch{LeaderEpoch: 2, LastSeq: 9, Snapshot: []byte(`{}`), SnapshotSeq: 9},
			`{"leader_epoch":2,"last_seq":9,"snapshot":"e30=","snapshot_seq":9}`},
		{"caught-up batch", Batch{LeaderEpoch: 1, LastSeq: 3}, `{"leader_epoch":1,"last_seq":3}`},
		{"stale refusal", StaleRefusal{Error: StaleLeadership + ": this node is a follower (observed leader epoch 3)", LeaderEpoch: 3},
			`{"error":"replica: stale leadership epoch: this node is a follower (observed leader epoch 3)","leader_epoch":3}`},
		{"ready response", ReadyResponse{Ready: false, Reason: "replaying journal: 2 records behind",
			Status: ReplicationStatus{Role: "follower", Epoch: 1, AppliedSeq: 1, Source: "http://a", PrimaryLastSeq: 3, Lag: 2, Synced: true, RecordsApplied: 1}},
			`{"ready":false,"reason":"replaying journal: 2 records behind","status":{"role":"follower","epoch":1,"applied_seq":1,"source":"http://a","primary_last_seq":3,"lag":2,"synced":true,"caught_up":false,"records_applied":1,"snapshots_installed":0}}`},
		{"ready response without reason", ReadyResponse{Ready: true, Status: ReplicationStatus{Role: RolePrimary, Epoch: 1, Synced: true, CaughtUp: true}},
			`{"ready":true,"status":{"role":"primary","epoch":1,"applied_seq":0,"lag":0,"synced":true,"caught_up":true,"records_applied":0,"snapshots_installed":0}}`},
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
