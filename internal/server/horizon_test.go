package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
)

func mustNew(t *testing.T, f *testutil.Fig2, opts Options) *Server {
	t.Helper()
	s, err := NewWithOptions(f.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestServerWithOptions(t *testing.T, opts Options) (*httptest.Server, *testutil.Fig2) {
	t.Helper()
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, f, opts))
	t.Cleanup(ts.Close)
	return ts, f
}

func horizonConfigN(n int) horizon.Config { return horizon.Config{EpochRequests: n} }

// Drive the rolling-horizon endpoints end to end over the Fig. 2 example:
// submit, plan, advance, then verify late arrivals are refused with 409.
func TestHorizonEndpoints(t *testing.T) {
	ts, f := newTestServer(t)

	// Initially the plan is empty at horizon 0.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	plan := decode[PlanResponse](t, resp)
	if plan.Epoch != 0 || plan.Pending != 0 || len(plan.Schedule.Files) != 0 {
		t.Fatalf("fresh plan not empty: %+v", plan)
	}

	// Submit the three Fig. 2 reservations.
	for i, q := range f.Requests {
		resp := postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{
			User: q.User, Video: q.Video, Start: q.Start,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reservation %d: status %d", i, resp.StatusCode)
		}
		ack := decode[ReservationResponse](t, resp)
		if !ack.Accepted || ack.Pending != i+1 {
			t.Fatalf("reservation %d ack: %+v", i, ack)
		}
	}

	// Advance past the second reservation: the first two freeze.
	h := simtime.Time(120 * int64(simtime.Minute))
	resp2 := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: h})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp2.StatusCode)
	}
	epoch := decode[map[string]any](t, resp2)
	if got := epoch["admitted"].(float64); got != 3 {
		t.Fatalf("admitted %v reservations, want 3", got)
	}
	if got := epoch["frozen_deliveries"].(float64); got != 0 {
		t.Fatalf("first advance froze %v deliveries, want 0 (nothing was committed)", got)
	}

	// A second advance freezes the two reservations behind it and re-plans
	// the one still ahead.
	h2 := simtime.Time(150 * int64(simtime.Minute))
	respAdv := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: h2})
	if respAdv.StatusCode != http.StatusOK {
		t.Fatalf("second advance: status %d", respAdv.StatusCode)
	}
	epoch = decode[map[string]any](t, respAdv)
	if got := epoch["frozen_deliveries"].(float64); got != 2 {
		t.Fatalf("second advance froze %v deliveries, want 2", got)
	}
	if got := epoch["replanned"].(float64); got != 1 {
		t.Fatalf("second advance replanned %v, want 1", got)
	}
	h = h2

	// The plan now carries the committed schedule.
	resp3, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	plan = decode[PlanResponse](t, resp3)
	if plan.Epoch != 2 || plan.Horizon != h || plan.Schedule.NumDeliveries() != 3 {
		t.Fatalf("plan after advance: epoch=%d horizon=%v deliveries=%d",
			plan.Epoch, plan.Horizon, plan.Schedule.NumDeliveries())
	}
	if plan.Cost <= 0 {
		t.Fatalf("committed cost %v", plan.Cost)
	}

	// A reservation starting inside the frozen window is a 409.
	resp4 := postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{
		User: f.Requests[0].User, Video: 0, Start: h - 1,
	})
	if resp4.StatusCode != http.StatusConflict {
		t.Fatalf("late arrival: status %d, want 409", resp4.StatusCode)
	}

	// Moving the horizon backwards is a 400.
	resp5 := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: h - 1})
	if resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("backwards advance: status %d, want 400", resp5.StatusCode)
	}
}

// Unknown users and titles are rejected up front with 400.
func TestHorizonRejectsMalformedReservation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []ReservationRequest{
		{User: 99, Video: 0, Start: 0},
		{User: 0, Video: 99, Start: 0},
		{User: 0, Video: 0, Start: -1},
	} {
		resp := postJSON(t, ts.URL+"/v1/reservations", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// Epoch triggers configured via Options surface in the intake ack.
func TestHorizonEpochTriggerViaOptions(t *testing.T) {
	ts, f := newTestServerWithOptions(t, Options{Horizon: horizonConfigN(2)})
	q := f.Requests[0]
	resp := postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if ack := decode[ReservationResponse](t, resp); ack.EpochDue {
		t.Fatalf("epoch due after one reservation: %+v", ack)
	}
	q = f.Requests[1]
	resp = postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	ack := decode[ReservationResponse](t, resp)
	if !ack.EpochDue || ack.Trigger != "requests" {
		t.Fatalf("count trigger not reported: %+v", ack)
	}
}

// Each committed advance increments the stats advance counter so advance
// lag is observable from /v1/stats; failed advances don't count.
func TestAdvanceCountersInStats(t *testing.T) {
	ts, f := newTestServer(t)
	readStats := func() HorizonStats {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[StatsResponse](t, resp).Horizon
	}
	if hs := readStats(); hs.Advances != 0 {
		t.Fatalf("fresh server reports %d advances", hs.Advances)
	}
	q := f.Requests[0]
	postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if resp := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: 60}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: 120}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	// A regressing advance fails and must not count.
	postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: 30})
	if hs := readStats(); hs.Advances != 2 {
		t.Fatalf("advances = %d, want 2 (regressing advance counted?)", hs.Advances)
	}
}

// The stats advance block sums each committed epoch's overflow-resolution
// work counts, so the reuse hit rate is readable from a running server.
func TestResolutionCountersInStats(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 2, RequestsPerUser: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(r.Model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var want sorp.Work
	for i, q := range r.Requests {
		postJSON(t, ts.URL+"/v1/reservations", ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
		if (i+1)%40 != 0 {
			continue
		}
		resp := postJSON(t, ts.URL+"/v1/advance", AdvanceRequest{To: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance: status %d", resp.StatusCode)
		}
		res := decode[horizon.EpochResult](t, resp)
		if res.Resolution.Iterations != len(res.Victims) {
			t.Fatalf("epoch %d: %d iterations for %d victims", res.Epoch, res.Resolution.Iterations, len(res.Victims))
		}
		want.Add(res.Resolution)
	}
	if want.Iterations == 0 || want.Reused == 0 {
		t.Fatalf("fixture bug: the epochs resolved nothing or reused nothing: %+v", want)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[StatsResponse](t, resp).Horizon.Resolution; got != want {
		t.Fatalf("stats resolution block %+v, want the sum of the advance replies %+v", got, want)
	}
}
