package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
)

func replCfg() horizon.Config {
	return horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}
}

func getAs[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp.StatusCode, decode[T](t, resp)
}

// Two servers over the HTTP surface: a durable primary and a warm
// standby shipping its WAL. The standby reports unready until caught up,
// rejects intake while following, promotes over HTTP with the source
// fenced, and the deposed primary then refuses intake with the
// stale-leadership error.
func TestServerFailoverEndToEnd(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: replCfg()})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)
	standby := mustNew(t, f, Options{
		DataDir:       t.TempDir(),
		Horizon:       replCfg(),
		ReplicateFrom: pts.URL,
	})
	sts := httptest.NewServer(standby)
	t.Cleanup(sts.Close)

	// A follower refuses stateful intake outright.
	resp := postJSON(t, sts.URL+"/v1/reservations", api.ReservationRequest{
		User: f.Requests[0].User, Video: f.Requests[0].Video, Start: f.Requests[0].Start,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("follower accepted a reservation: status %d", resp.StatusCode)
	}
	if e := decode[map[string]string](t, resp); !strings.Contains(e["error"], "stale leadership") {
		t.Fatalf("follower rejection %q does not name stale leadership", e["error"])
	}

	// Alive but not serviceable: /healthz 200, /readyz 503 with a reason.
	if code, _ := getAs[map[string]any](t, sts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("follower healthz = %d, want 200", code)
	}
	code, ready := getAs[api.ReadyResponse](t, sts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("unsynced follower readyz = %d ready=%v, want 503", code, ready.Ready)
	}
	if !strings.Contains(ready.Reason, "not yet synced") {
		t.Fatalf("readyz reason %q does not explain the missing sync", ready.Reason)
	}

	// Load the primary, then start shipping.
	for _, q := range f.Requests {
		if resp := postJSON(t, pts.URL+"/v1/reservations", api.ReservationRequest{
			User: q.User, Video: q.Video, Start: q.Start,
		}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("primary reservation: status %d", resp.StatusCode)
		}
	}
	if resp := postJSON(t, pts.URL+"/v1/advance", api.AdvanceRequest{
		To: simtime.Time(120 * int64(simtime.Minute)),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("primary advance: status %d", resp.StatusCode)
	}
	standby.StartReplication(context.Background())

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, ready = getAs[api.ReadyResponse](t, sts.URL+"/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never became ready: %d %+v", code, ready)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ready.Ready || ready.Status.Lag != 0 || ready.Status.Role != "follower" {
		t.Fatalf("ready follower status: %+v", ready)
	}
	if ready.Status.AppliedSeq != uint64(len(f.Requests))+1 {
		t.Fatalf("follower applied seq %d, want %d", ready.Status.AppliedSeq, len(f.Requests)+1)
	}

	// /v1/stats carries the same replication status and readiness.
	if _, stats := getAs[api.StatsResponse](t, sts.URL+"/v1/stats"); !stats.Ready ||
		stats.Replication.Role != "follower" || stats.Replication.AppliedSeq != ready.Status.AppliedSeq {
		t.Fatalf("stats replication block: ready=%v %+v", stats.Ready, stats.Replication)
	}

	// Promote the standby, fencing the old primary under the new epoch.
	resp = postJSON(t, sts.URL+"/v1/replication/promote", api.PromoteRequest{FenceSource: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	prom := decode[api.PromoteResponse](t, resp)
	if !prom.Promoted || !prom.SourceFenced || prom.Epoch != 2 {
		t.Fatalf("promotion reply: %+v", prom)
	}
	if prom.AppliedSeq != ready.Status.AppliedSeq {
		t.Fatalf("promotion at seq %d, follower had %d", prom.AppliedSeq, ready.Status.AppliedSeq)
	}

	// The deposed primary is fenced: intake answers the stale-leadership
	// conflict and readiness drops, so a balancer drains it.
	resp = postJSON(t, pts.URL+"/v1/advance", api.AdvanceRequest{
		To: simtime.Time(240 * int64(simtime.Minute)),
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced primary accepted an advance: status %d", resp.StatusCode)
	}
	if e := decode[map[string]string](t, resp); !strings.Contains(e["error"], "stale leadership") {
		t.Fatalf("fenced rejection %q does not name stale leadership", e["error"])
	}
	if code, _ := getAs[api.ReadyResponse](t, pts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("fenced primary readyz = %d, want 503", code)
	}

	// The new primary serves: ready, and accepting the advance the old
	// one just refused.
	if code, _ := getAs[api.ReadyResponse](t, sts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("promoted node readyz = %d, want 200", code)
	}
	if resp := postJSON(t, sts.URL+"/v1/advance", api.AdvanceRequest{
		To: simtime.Time(240 * int64(simtime.Minute)),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted node advance: status %d", resp.StatusCode)
	}

	// Fenced in turn under a newer epoch, the ex-standby is a follower
	// again, and one that ships nothing: promotion stopped its shipper.
	// Whatever its last poll found, it is not serviceable.
	if resp := postJSON(t, sts.URL+"/v1/replication/fence", api.FenceRequest{Epoch: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("fence of the promoted node: status %d", resp.StatusCode)
	}
	code, ready = getAs[api.ReadyResponse](t, sts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready.Ready || ready.Status.Role != "follower" || ready.Status.Epoch != 3 {
		t.Fatalf("fenced ex-standby readyz = %d %+v, want 503 as a follower at epoch 3", code, ready)
	}
}

// Promotion of a follower that has never synced is refused with 409 and
// leaves the node a functioning follower; force overrides.
func TestPromoteRefusedUntilSynced(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	// The replication source does not resolve: the follower can never sync.
	standby := mustNew(t, f, Options{
		DataDir:       t.TempDir(),
		Horizon:       replCfg(),
		ReplicateFrom: "http://127.0.0.1:1", // nothing listens there
	})
	sts := httptest.NewServer(standby)
	t.Cleanup(sts.Close)

	resp := postJSON(t, sts.URL+"/v1/replication/promote", api.PromoteRequest{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unsynced promotion: status %d, want 409", resp.StatusCode)
	}
	if e := decode[map[string]string](t, resp); !strings.Contains(e["error"], "catch-up") {
		t.Fatalf("refusal %q does not explain the catch-up failure", e["error"])
	}

	resp = postJSON(t, sts.URL+"/v1/replication/promote", api.PromoteRequest{Force: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced promotion: status %d", resp.StatusCode)
	}
	if prom := decode[api.PromoteResponse](t, resp); !prom.Promoted {
		t.Fatalf("forced promotion reply: %+v", prom)
	}
}

// The WAL endpoint fences by epoch: a request carrying a higher epoch
// demotes the serving primary before the response is assembled.
func TestReplicationWALObservesEpoch(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: replCfg()})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)

	// A poll at the primary's own epoch leaves it serving.
	if code, _ := getAs[map[string]any](t, pts.URL+"/v1/replication/wal?after=0&epoch=1"); code != http.StatusOK {
		t.Fatalf("poll at current epoch: status %d", code)
	}
	// A poll announcing epoch 5 supersedes it.
	code, e := getAs[api.StaleRefusal](t, pts.URL+"/v1/replication/wal?after=0&epoch=5")
	if code != http.StatusConflict || !strings.Contains(e.Error, "stale leadership") || e.LeaderEpoch != 5 {
		t.Fatalf("superseded poll: status %d body %+v, want 409 naming stale leadership at leader epoch 5", code, e)
	}
	if resp := postJSON(t, pts.URL+"/v1/reservations", api.ReservationRequest{
		User: f.Requests[0].User, Video: f.Requests[0].Video, Start: f.Requests[0].Start,
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("demoted primary accepted intake: status %d", resp.StatusCode)
	}
}

// Replication endpoints on an in-memory node answer 501: there is no
// journal to ship.
func TestReplicationWALRequiresDurability(t *testing.T) {
	ts, _ := newTestServer(t)
	code, e := getAs[map[string]string](t, ts.URL+"/v1/replication/wal?after=0&epoch=1")
	if code != http.StatusNotImplemented || !strings.Contains(e["error"], "durable") {
		t.Fatalf("in-memory WAL endpoint: status %d body %v", code, e)
	}
}

// A follower's replicated submits fire its trigger, but it never closes an
// epoch on its own: its epochs are the primary's advance records. Promoted,
// it closes one at its next trigger.
func TestOnlyThePrimaryClosesOnATrigger(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	triggered := replCfg()
	triggered.EpochRequests = 1
	// The primary's lag outlasts the test, so every epoch it has is one it
	// was told to close; the follower would close at every arrival.
	primary := mustNew(t, f, Options{DataDir: t.TempDir(), Horizon: triggered, AdvanceLag: 1000 * simtime.Hour})
	pts := httptest.NewServer(primary)
	t.Cleanup(pts.Close)
	follower := mustNew(t, f, Options{
		DataDir:       t.TempDir(),
		Horizon:       triggered,
		ReplicateFrom: pts.URL,
	})
	fts := httptest.NewServer(follower)
	t.Cleanup(fts.Close)
	follower.StartReplication(context.Background())
	caughtUp := func(seq uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for follower.horizon.AppliedSeq() < seq {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at seq %d, want %d", follower.horizon.AppliedSeq(), seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
		follower.closeWG.Wait()
	}

	for _, q := range f.Requests {
		resp := postJSON(t, pts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
		if ack := decode[api.ReservationResponse](t, resp); !ack.EpochDue {
			t.Fatalf("primary ack %+v: the trigger did not fire", ack)
		}
	}
	caughtUp(uint64(len(f.Requests)))
	if hs := horizonStats(t, fts.URL); hs.Epoch != 0 || hs.Pending != len(f.Requests) || hs.Advances != 0 {
		t.Fatalf("follower after the replicated submits: %+v, want epoch 0 with all %d pending", hs, len(f.Requests))
	}

	to := simtime.Time(60 * simtime.Minute)
	if resp := postJSON(t, pts.URL+"/v1/advance", api.AdvanceRequest{To: to}); resp.StatusCode != http.StatusOK {
		t.Fatalf("primary advance: status %d", resp.StatusCode)
	}
	caughtUp(uint64(len(f.Requests)) + 1)
	if hs := horizonStats(t, fts.URL); hs.Epoch != 1 || hs.Horizon != to || hs.Pending != 0 {
		t.Fatalf("follower after the primary's advance: %+v, want epoch 1 at %v", hs, to)
	}

	if resp := postJSON(t, fts.URL+"/v1/replication/promote", api.PromoteRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	q, start := f.Requests[0], simtime.Time(300*simtime.Minute)
	resp := postJSON(t, fts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: start})
	if ack := decode[api.ReservationResponse](t, resp); resp.StatusCode != http.StatusAccepted || !ack.EpochDue {
		t.Fatalf("promoted node: status %d, ack %+v", resp.StatusCode, ack)
	}
	follower.closeWG.Wait()
	if hs := horizonStats(t, fts.URL); hs.Epoch != 2 || hs.Horizon != start || hs.Advances != 1 {
		t.Fatalf("promoted node after its trigger: %+v, want epoch 2 at %v, closed by itself", hs, start)
	}
}
