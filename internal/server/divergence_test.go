package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// An old primary journals seqs 4–5 that never reach its standby, dies, and
// the standby is promoted and takes two other reservations as its own 4–5.
// The old primary then rejoins as the new primary's follower, keeping its
// data directory. Its applied seq equals the new primary's last seq, yet the
// two histories differ there: its poll must be refused with a 409 naming both
// seqs, it must stop reporting itself synced and ready, and a gateway that
// loses the new primary must not promote it.
func TestRejoinedPrimaryDivergenceRefused(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	submit := func(base string, q workload.Request) {
		t.Helper()
		driveHTTP(t, base, op{submit: true, at: q.Start, req: q})
	}
	ctx := context.Background()
	cfg := horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}

	dirA := t.TempDir()
	a, err := NewWithOptions(r.Model, Options{DataDir: dirA, Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ats := httptest.NewServer(a)
	b, err := NewWithOptions(r.Model, Options{DataDir: t.TempDir(), Horizon: cfg, ReplicateFrom: ats.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bts := httptest.NewServer(b)
	defer bts.Close()

	for _, q := range reqs[:3] {
		submit(ats.URL, q)
	}
	if err := b.shipper.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range reqs[3:5] {
		submit(ats.URL, q) // seqs 4–5, never replicated
	}
	ats.Close()
	a.Close()

	if resp := postJSON(t, bts.URL+"/v1/replication/promote", api.PromoteRequest{Force: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("forced promotion: status %d", resp.StatusCode)
	}
	for _, q := range reqs[5:7] {
		submit(bts.URL, q) // the new primary's own seqs 4–5
	}

	rejoined, err := NewWithOptions(r.Model, Options{DataDir: dirA, Horizon: cfg, ReplicateFrom: bts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	if got, want := rejoined.horizon.AppliedSeq(), b.horizon.AppliedSeq(); got != 5 || want != 5 {
		t.Fatalf("fixture bug: the rejoined node is at seq %d and the new primary at %d, want 5 and 5", got, want)
	}
	_, err = rejoined.shipper.Poll(ctx)
	var se *retryhttp.StatusError
	if err == nil || !strings.Contains(err.Error(), "seq 5") || !strings.Contains(err.Error(), "last seq 5") {
		t.Fatalf("the rejoined node's poll: %v, want a refusal naming its seq 5 and the primary's last seq 5", err)
	}
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("the rejoined node's poll: %v, want a 409", err)
	}
	st := status(rejoined.shipper)
	if st.Synced || st.CaughtUp || st.LastError == "" {
		t.Fatalf("a refused follower reports %+v, want not synced, not caught up, and the error", st)
	}

	rts := httptest.NewServer(rejoined)
	defer rts.Close()
	rejoined.StartReplication(ctx)
	if code, ready := getAs[api.ReadyResponse](t, rts.URL+"/readyz"); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("a refused follower's readyz = %d %+v, want 503", code, ready)
	}

	// The gateway fronts the new primary with the rejoined node as its
	// standby. When the primary dies, the standby must not be promoted.
	gw, err := gateway.New(gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: bts.URL, Standby: rts.URL}},
		Retry:  retryhttp.Options{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()
	bts.Close()
	b.Close()
	q := reqs[7]
	if resp := postJSON(t, gts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}); resp.StatusCode == http.StatusAccepted {
		t.Fatal("the gateway accepted a reservation with only the diverged standby left")
	}
	if _, st := getAs[api.ReplicationStatus](t, rts.URL+"/v1/replication/status"); st.Role == api.RolePrimary {
		t.Fatal("the gateway promoted a diverged standby")
	}
}

// A batch is decoded strictly: a field this follower does not know — sent by
// a primary one version ahead — is refused by name, and nothing is applied.
func TestShipperRefusesUnknownBatchField(t *testing.T) {
	r, err := testutil.Build(failoverParams())
	if err != nil {
		t.Fatal(err)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"leader_epoch":1,"last_seq":1,"records":[],"fingerprint":"x"}`))
	}))
	defer stub.Close()
	fsvc, sh, _ := newFollower(t, r, horizon.Config{SnapshotEvery: -1, Fsync: wal.FsyncNever}, stub.URL, faultNone)
	defer fsvc.Close()
	if _, err := sh.Poll(context.Background()); err == nil || !strings.Contains(err.Error(), `unknown field "fingerprint"`) {
		t.Fatalf("poll of a batch with an unknown field: %v, want a refusal naming it", err)
	}
	if st := status(sh); st.Synced || fsvc.AppliedSeq() != 0 {
		t.Fatalf("a refused batch left the follower at %+v, applied seq %d", st, fsvc.AppliedSeq())
	}
}
