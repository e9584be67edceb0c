package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
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

func TestScheduleEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Requests: f.Requests})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ScheduleResponse](t, resp)
	if !out.FinalCost.ApproxEqual(units.Money(108.45), 1e-6) {
		t.Errorf("final cost = %v, want $108.45", out.FinalCost)
	}
	if !out.DirectCost.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("direct cost = %v", out.DirectCost)
	}
	// The returned schedule validates.
	if err := out.Schedule.Validate(f.Topo, f.Model.Catalog(), f.Requests); err != nil {
		t.Fatalf("returned schedule invalid: %v", err)
	}
}

func TestScheduleEndpointWithOptions(t *testing.T) {
	ts, f := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{
		Requests: f.Requests, Metric: "period", Policy: "no-caching",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ScheduleResponse](t, resp)
	if out.Schedule.NumResidencies() != 0 {
		t.Error("no-caching policy must not cache")
	}
	if !out.FinalCost.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("no-caching cost = %v", out.FinalCost)
	}
}

func TestScheduleEndpointRejections(t *testing.T) {
	ts, f := newTestServer(t)
	cases := []struct {
		name string
		body any
	}{
		{"empty batch", ScheduleRequest{}},
		{"bad metric", ScheduleRequest{Requests: f.Requests, Metric: "bogus"}},
		{"bad policy", ScheduleRequest{Requests: f.Requests, Policy: "bogus"}},
		{"unknown user", ScheduleRequest{Requests: workload.Set{{User: 99, Video: 0, Start: 0}}}},
		{"unknown video", ScheduleRequest{Requests: workload.Set{{User: 0, Video: 42, Start: 0}}}},
		{"negative start", ScheduleRequest{Requests: workload.Set{{User: 0, Video: 0, Start: -5}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/schedule", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /v1/schedule must not succeed")
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
	var st StatsResponse
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

// TestConcurrentScheduleRequests exercises the server's concurrency claim:
// the model is read-only after construction, so parallel schedule calls
// must race-cleanly produce identical results.
func TestConcurrentScheduleRequests(t *testing.T) {
	ts, f := newTestServer(t)
	const workers = 8
	results := make([]vspMoney, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(ScheduleRequest{Requests: f.Requests})
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out ScheduleResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			results[i] = out.FinalCost
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("nondeterministic concurrent results: %v vs %v", results[i], results[0])
		}
	}
}

type vspMoney = units.Money
