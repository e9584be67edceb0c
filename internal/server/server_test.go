package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/testutil"
)

func newTestServer(t *testing.T) (*httptest.Server, *testutil.Fig2) {
	t.Helper()
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(f.Model))
	t.Cleanup(ts.Close)
	return ts, f
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestTopologyAndCatalogEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spec struct {
		Warehouse string `json:"warehouse"`
		Storages  []any  `json:"storages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Warehouse != "VW" || len(spec.Storages) != 2 {
		t.Errorf("topology = %+v", spec)
	}

	resp2, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var videos []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&videos); err != nil {
		t.Fatal(err)
	}
	if len(videos) != 1 {
		t.Errorf("catalog = %d titles", len(videos))
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/reservations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reservations: status %d, want 405", resp.StatusCode)
	}
}

// A reservation enters through /v1/reservations and is solved when its epoch
// closes: the server has no stateless batch solve beside the intake (an
// offline batch is cmd/vspsched's or System.Schedule's).
func TestNoBatchSolveRoute(t *testing.T) {
	ts, f := newTestServer(t)
	q := f.Requests[0]
	resp := postJSON(t, ts.URL+"/v1/schedule", map[string]any{"requests": []api.ReservationRequest{{User: q.User, Video: q.Video, Start: q.Start}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/schedule: status %d, want 404", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Topology.Nodes != 3 || st.Topology.Links != 2 || st.Titles != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Topology.Diameter != 2 {
		t.Errorf("diameter = %d", st.Topology.Diameter)
	}
}
