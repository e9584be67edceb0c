package gateway

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
)

// failoverWorthy reads a shard's own words: the 409 a really fenced server
// writes, relayed as the StatusError forward sees, is failover-worthy, and the
// 409 the same server writes for a late arrival is not. The needle is
// server.ErrStaleLeadership itself, so rewording that error cannot silently
// stop automated failover.
func TestFailoverWorthyReadsTheFencedPrimarysOwnAnswer(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithOptions(f.Model, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	ctx := context.Background()
	once := retryhttp.Options{MaxAttempts: 1}
	reserve := func() *retryhttp.StatusError {
		t.Helper()
		q := f.Requests[0]
		err := retryhttp.PostJSON(ctx, once, ts.URL+"/v1/reservations",
			api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, nil)
		var se *retryhttp.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusConflict {
			t.Fatalf("reservation answered %v, want a 409", err)
		}
		return se
	}

	to := f.Requests[0].Start.Add(simtime.Hour)
	if err := retryhttp.PostJSON(ctx, once, ts.URL+"/v1/advance", api.AdvanceRequest{To: to}, nil); err != nil {
		t.Fatal(err)
	}
	if late := reserve(); failoverWorthy(late) {
		t.Fatalf("a late arrival's 409 is failover-worthy: %v", late)
	}

	if err := retryhttp.PostJSON(ctx, once, ts.URL+"/v1/replication/fence", api.FenceRequest{Epoch: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if fenced := reserve(); !failoverWorthy(fenced) {
		t.Fatalf("a fenced primary's 409 is not failover-worthy: %v", fenced)
	}
}
