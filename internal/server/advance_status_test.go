package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// POST /v1/advance answers with the status of the error the close returned,
// not with a second read of the horizon: a shard's own closer may commit
// between a failed close and that read, which turned a deadline's 503 into a
// 400 that neither the gateway's breaker nor a retrying client acts on. A
// backwards target is 400, an expired deadline 503 and a solver failure 500,
// each read off the error the service returns.
func TestAdvanceStatusComesFromTheError(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{})
	advance := func(ctx context.Context, to simtime.Time) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"to":%d}`, to)
		req := httptest.NewRequest(http.MethodPost, "/v1/advance", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	for _, q := range f.Requests {
		if _, err := s.horizon.Submit(q.Start, q); err != nil {
			t.Fatal(err)
		}
	}
	h := simtime.Time(120 * int64(simtime.Minute))
	if rec := advance(context.Background(), h); rec.Code != http.StatusOK {
		t.Fatalf("advance to %v: status %d: %s", h, rec.Code, rec.Body)
	}

	if rec := advance(context.Background(), h-1); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "backwards") {
		t.Errorf("backwards target: status %d %s, want 400", rec.Code, rec.Body)
	}

	late := workload.Request{User: f.Requests[0].User, Video: 0, Start: h + simtime.Time(simtime.Hour)}
	if _, err := s.horizon.Submit(h, late); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if rec := advance(expired, h+1); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "deadline exceeded") {
		t.Errorf("expired deadline: status %d %s, want 503", rec.Code, rec.Body)
	}
	if got := s.horizon.Horizon(); got != h {
		t.Fatalf("a failed close moved the horizon to %v", got)
	}

	// A solver failure reaches the handler wrapped as the close wraps it.
	_, solveErr := scheduler.Schedule(context.Background(), f.Model, workload.Set{{User: 999, Video: 0}}, scheduler.Config{})
	if solveErr == nil {
		t.Fatal("fixture bug: a request of an unknown user solved")
	}
	if got := schedulingStatus(fmt.Errorf("horizon: epoch 1: %w", solveErr)); got != http.StatusInternalServerError {
		t.Errorf("solver error %q: status %d, want 500", solveErr, got)
	}
}
