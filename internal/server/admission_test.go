package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// End to end through the real server: hold the single admission slot with
// a blocking request, then hit a real API endpoint. It must be shed with
// 429 + Retry-After while the in-flight request completes, the shed count
// must surface on /v1/stats, and /healthz must answer throughout.
func TestServerOverloadSheds(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, f, Options{MaxInFlight: 1, MaxQueue: -1})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	slowStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/slow")
		if err != nil {
			slowStatus <- 0
			return
		}
		resp.Body.Close()
		slowStatus <- resp.StatusCode
	}()
	<-entered // the only slot is now provably held

	q := f.Requests[0]
	resp := postJSON(t, ts.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated reservation: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed reservation missing Retry-After")
	}

	// Liveness must bypass admission control at saturation.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz at saturation: %d", hresp.StatusCode)
	}

	close(release)
	wg.Wait()
	if got := <-slowStatus; got != http.StatusOK {
		t.Fatalf("in-flight request completed with %d, want 200", got)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[api.StatsResponse](t, sresp)
	if stats.Overload.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", stats.Overload.Shed)
	}
	if stats.Overload.MaxInFlight != 1 {
		t.Errorf("stats max_in_flight = %d, want 1", stats.Overload.MaxInFlight)
	}
}

// Durable server lifecycle: reservations and epochs survive a restart,
// and the stats endpoint reports horizon state and recovery counters.
func TestServerDurableRestart(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{DataDir: dir}

	srv1, err := NewWithOptions(f.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	for _, q := range f.Requests {
		resp := postJSON(t, ts1.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reservation: %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts1.URL+"/v1/advance", api.AdvanceRequest{To: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %d", resp.StatusCode)
	}
	planResp, err := http.Get(ts1.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	before := decode[api.PlanResponse](t, planResp)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewWithOptions(f.Model, opts)
	if err != nil {
		t.Fatalf("restart on %s: %v", dir, err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	planResp2, err := http.Get(ts2.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	after := decode[api.PlanResponse](t, planResp2)
	if after.Epoch != before.Epoch || after.Cost != before.Cost ||
		len(after.Schedule.Files) != len(before.Schedule.Files) {
		t.Fatalf("plan did not survive restart:\nbefore %+v\nafter  %+v", before, after)
	}

	statsResp, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[api.StatsResponse](t, statsResp)
	if !stats.Recovery.Recovered {
		t.Errorf("stats recovery does not report the restart: %+v", stats.Recovery)
	}
	if !stats.Horizon.Durable || stats.Horizon.Epoch != before.Epoch {
		t.Errorf("stats horizon wrong after restart: %+v", stats.Horizon)
	}

	// The recovered service keeps accepting and planning.
	q := workload.Request{User: f.Requests[0].User, Video: f.Requests[0].Video, Start: f.Requests[0].Start + 7200}
	r2 := postJSON(t, ts2.URL+"/v1/reservations", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery reservation: %d", r2.StatusCode)
	}
}
