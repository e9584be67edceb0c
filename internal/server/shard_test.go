package server

import (
	"net/http"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/simtime"
)

// The /v1/stats shard block is the one-request feed a routing gateway's
// load poller reads (see internal/gateway): the -shard-id label, the
// node's leadership role, the committed epoch, and replication lag.
func TestStatsShardBlock(t *testing.T) {
	ts, f := newTestServerWithOptions(t, Options{ShardID: "s9"})

	getStats := func() api.ShardInfo {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decode[api.StatsResponse](t, resp).Shard
	}

	sh := getStats()
	if sh.ID != "s9" {
		t.Fatalf("shard id %q, want the configured s9", sh.ID)
	}
	if sh.Role != "primary" {
		t.Fatalf("unreplicated node reports role %q, want primary", sh.Role)
	}
	if sh.Epoch != 0 || sh.ReplicationLag != 0 {
		t.Fatalf("fresh shard block epoch=%d lag=%d, want 0/0", sh.Epoch, sh.ReplicationLag)
	}

	// The block tracks the committed epoch, so a gateway can spot a shard
	// that is falling behind the tier from this one poll.
	q := f.Requests[0]
	postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	resp := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: simtime.Time(120 * int64(simtime.Minute))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	if sh = getStats(); sh.Epoch != 1 {
		t.Fatalf("shard block epoch %d after one advance, want 1", sh.Epoch)
	}
}

// An unlabeled node omits the shard ID rather than inventing one: the
// block is present (role, epoch, lag still matter to a poller) but the
// identity is the operator's to assign.
func TestStatsShardBlockUnlabeled(t *testing.T) {
	ts, _ := newTestServerWithOptions(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sh := decode[api.StatsResponse](t, resp).Shard
	if sh.ID != "" {
		t.Fatalf("unlabeled node reports shard id %q, want empty", sh.ID)
	}
	if sh.Role != "primary" {
		t.Fatalf("role %q, want primary", sh.Role)
	}
}
