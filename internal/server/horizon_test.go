package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
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
	plan := decode[api.PlanResponse](t, resp)
	if plan.Epoch != 0 || plan.Pending != 0 || len(plan.Schedule.Files) != 0 {
		t.Fatalf("fresh plan not empty: %+v", plan)
	}

	// Submit the three Fig. 2 reservations.
	for i, q := range f.Requests {
		resp := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{
			User: q.User, Video: q.Video, Start: q.Start,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reservation %d: status %d", i, resp.StatusCode)
		}
		ack := decode[api.ReservationResponse](t, resp)
		if !ack.Accepted || ack.Pending != i+1 {
			t.Fatalf("reservation %d ack: %+v", i, ack)
		}
	}

	// Advance past the second reservation: the first two freeze.
	h := simtime.Time(120 * int64(simtime.Minute))
	resp2 := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: h})
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
	respAdv := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: h2})
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
	plan = decode[api.PlanResponse](t, resp3)
	if plan.Epoch != 2 || plan.Horizon != h || plan.Schedule.NumDeliveries() != 3 {
		t.Fatalf("plan after advance: epoch=%d horizon=%v deliveries=%d",
			plan.Epoch, plan.Horizon, plan.Schedule.NumDeliveries())
	}
	if plan.Cost <= 0 {
		t.Fatalf("committed cost %v", plan.Cost)
	}

	// A reservation starting inside the frozen window is a 409.
	resp4 := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{
		User: f.Requests[0].User, Video: 0, Start: h - 1,
	})
	if resp4.StatusCode != http.StatusConflict {
		t.Fatalf("late arrival: status %d, want 409", resp4.StatusCode)
	}

	// Moving the horizon backwards is a 400.
	resp5 := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: h - 1})
	if resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("backwards advance: status %d, want 400", resp5.StatusCode)
	}
}

// Unknown users and titles are rejected up front with 400.
func TestHorizonRejectsMalformedReservation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []api.ReservationRequest{
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

// A reservation cannot arrive after it starts: "at" past "start" is a 400
// before the journal sees it, so the service's clock does not move either.
func TestHorizonRejectsArrivalAfterStart(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	start, late := simtime.Time(8*simtime.Minute+8), simtime.Time(1000*simtime.Hour)
	resp := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: 0, Video: 0, Start: start, At: &late})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("arrival after start: status %d, want 400", resp.StatusCode)
	}
	if seq, pending := s.horizon.AppliedSeq(), s.horizon.Pending(); seq != 0 || pending != 0 {
		t.Fatalf("a refused reservation was journaled: applied seq %d, %d pending", seq, pending)
	}
	resp = postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: 0, Video: 0, Start: start, At: &start})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("arrival at start: status %d, want 202", resp.StatusCode)
	}
	if seq := s.horizon.AppliedSeq(); seq != 1 {
		t.Fatalf("applied seq %d after one accepted reservation, want 1", seq)
	}
}

// Epoch triggers configured via Options surface in the intake ack.
func TestHorizonEpochTriggerViaOptions(t *testing.T) {
	ts, f := newTestServerWithOptions(t, Options{Horizon: horizonConfigN(2)})
	q := f.Requests[0]
	resp := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if ack := decode[api.ReservationResponse](t, resp); ack.EpochDue {
		t.Fatalf("epoch due after one reservation: %+v", ack)
	}
	q = f.Requests[1]
	resp = postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	ack := decode[api.ReservationResponse](t, resp)
	if !ack.EpochDue || ack.Trigger != "requests" {
		t.Fatalf("count trigger not reported: %+v", ack)
	}
}

// Each committed advance increments the stats advance counter so advance
// lag is observable from /v1/stats; failed advances don't count.
func TestAdvanceCountersInStats(t *testing.T) {
	ts, f := newTestServer(t)
	readStats := func() api.HorizonStats {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[api.StatsResponse](t, resp).Horizon
	}
	if hs := readStats(); hs.Advances != 0 {
		t.Fatalf("fresh server reports %d advances", hs.Advances)
	}
	q := f.Requests[0]
	postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if resp := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: 60}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: 120}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d", resp.StatusCode)
	}
	// A regressing advance fails and must not count.
	postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: 30})
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

	var want api.Work
	for i, q := range r.Requests {
		postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
		if (i+1)%40 != 0 {
			continue
		}
		resp := postJSON(t, ts.URL+"/v1/advance", api.AdvanceRequest{To: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance: status %d", resp.StatusCode)
		}
		res := decode[api.EpochResult](t, resp)
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
	if got := decode[api.StatsResponse](t, resp).Horizon.Resolution; got != want {
		t.Fatalf("stats resolution block %+v, want the sum of the advance replies %+v", got, want)
	}
}

// horizonStats reads a server's /v1/stats horizon block.
func horizonStats(t *testing.T, url string) api.HorizonStats {
	t.Helper()
	_, st := getAs[api.StatsResponse](t, url+"/v1/stats")
	return st.Horizon
}

// A primary closes its own epoch when a trigger fires, at the newest arrival
// less the lag. While every arrival lies inside the lag the target is not
// past horizon 0, so the trigger closes nothing — no solve that freezes
// nothing — and the reservations stay pending; the first arrival past the lag
// closes the epoch an hour behind it, counted in /v1/stats like an explicit
// advance.
func TestTriggerClosesBehindTheLag(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{Horizon: horizonConfigN(1), AdvanceLag: simtime.Hour})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	reserve := func(start simtime.Time) {
		t.Helper()
		q := f.Requests[0]
		resp := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: start})
		if ack := decode[api.ReservationResponse](t, resp); resp.StatusCode != http.StatusAccepted || !ack.EpochDue {
			t.Fatalf("reservation at %v: status %d, ack %+v; want 202 with the trigger fired", start, resp.StatusCode, ack)
		}
		s.closeWG.Wait()
	}

	reserve(simtime.Time(10 * simtime.Minute))
	reserve(simtime.Time(50 * simtime.Minute))
	if hs := horizonStats(t, ts.URL); hs.Epoch != 0 || hs.Horizon != 0 || hs.Pending != 2 || hs.Advances != 0 {
		t.Fatalf("triggers inside the lag closed an epoch: %+v", hs)
	}

	reserve(simtime.Time(150 * simtime.Minute))
	if hs := horizonStats(t, ts.URL); hs.Epoch != 1 || hs.Horizon != simtime.Time(90*simtime.Minute) || hs.Pending != 0 || hs.Advances != 1 {
		t.Fatalf("the trigger past the lag: %+v, want epoch 1 at %v with nothing pending", hs, simtime.Time(90*simtime.Minute))
	}
}

// A negative lag would close epochs ahead of the newest arrival, so the
// reservations after it would be refused as late: construction refuses it,
// before a data directory is opened.
func TestNegativeAdvanceLagRefused(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := NewWithOptions(f.Model, Options{DataDir: dir, AdvanceLag: -simtime.Second})
	if err == nil {
		s.Close()
		t.Fatal("negative advance lag accepted")
	}
	if !strings.Contains(err.Error(), "negative advance lag") {
		t.Fatalf("refusal does not say what is wrong: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused construction left %d file(s) in the data directory", len(entries))
	}
}

// Triggers that fire while a close runs are not lost: once every close has
// ended, the horizon stands at the newest accepted arrival less the lag, and
// every close that committed is counted. Four workers keep the closes busy
// enough for triggers to land during one.
func TestTriggeredClosesCatchUp(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages: 4, UsersPerStorage: 3, Titles: 10, WindowHours: 6, RequestsPerUser: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const lag = 30 * simtime.Minute
	s, err := NewWithOptions(r.Model, Options{Horizon: horizonConfigN(1), AdvanceLag: lag})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)

	const workers = 4
	newest := make([]simtime.Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				q := reqs[i]
				body, _ := json.Marshal(api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
				resp, err := http.Post(ts.URL+"/v1/reservations", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					newest[w] = max(newest[w], q.Start)
				case http.StatusConflict: // a close overtook this worker
				default:
					t.Errorf("reservation at %v: status %d", q.Start, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	s.closeWG.Wait()
	want := slices.Max(newest).Add(-lag)
	if hs := horizonStats(t, ts.URL); hs.Horizon != want || hs.Epoch == 0 || hs.Advances != uint64(hs.Epoch) {
		t.Fatalf("after the triggers: %+v, want the horizon at %v and every epoch counted", hs, want)
	}
}

// Close stops the closer before it closes the journal: the close the last
// reservation triggered is committed or cancelled whole, never cut off by a
// closed journal, and the directory recovers to one or the other.
func TestCloseStopsTheCloser(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := replCfg()
	cfg.EpochRequests = 1
	s, err := NewWithOptions(f.Model, Options{DataDir: dir, Horizon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	q := f.Requests[1]
	body, _ := json.Marshal(api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/reservations", bytes.NewReader(body)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("reservation: status %d", w.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p := mustNew(t, f, Options{DataDir: dir, Horizon: replCfg()}).horizon.Plan()
	if closed, open := p.Epoch == 1 && p.Pending == 0, p.Epoch == 0 && p.Pending == 1; !closed && !open {
		t.Fatalf("recovered epoch %d with %d pending, want the close committed or not begun", p.Epoch, p.Pending)
	}
}
