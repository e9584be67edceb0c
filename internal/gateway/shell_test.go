package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// The gateway mounts the same httpkit layers as the shards behind it;
// these are the three behaviours that buys it.

func errorBody(t *testing.T, resp *http.Response) map[string]string {
	t.Helper()
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("status %d reply is not a JSON object: %v", resp.StatusCode, err)
	}
	if body["error"] == "" {
		t.Fatalf("status %d reply has no error field: %v", resp.StatusCode, body)
	}
	return body
}

// A POST over the body cap is cut off at the cap and answered 413, not
// buffered whole and then routed.
func TestGatewayOversizedBodyRejected(t *testing.T) {
	var reached atomic.Bool
	shard := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { reached.Store(true) }))
	t.Cleanup(shard.Close)
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: shard.URL}},
		Retry:  fastRetry,
	})

	// A valid JSON prefix, so the decoder keeps reading until the cap
	// stops it (garbage would fail at byte 0 with 400).
	big := `{"user":0,"video":0,"start":3600,"pad":"` + strings.Repeat("x", api.DefaultMaxRequestBytes) + `"}`
	resp, err := http.Post(base+"/v1/reservations", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reservation: status %d, want 413", resp.StatusCode)
	}
	if body := errorBody(t, resp); !strings.Contains(body["error"], "exceeds") {
		t.Errorf("413 body does not name the cap: %v", body)
	}
	if reached.Load() {
		t.Error("oversized reservation was forwarded to the shard")
	}
}

// Intake is screened by the validator the shards apply, so a malformed
// reservation is a 400 naming the defect in the shards' words, and it is
// neither routed nor forwarded.
func TestGatewayScreensIntake(t *testing.T) {
	var reached atomic.Bool
	shard := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { reached.Store(true) }))
	t.Cleanup(shard.Close)
	gw, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: shard.URL}},
		Retry:  fastRetry,
	})

	for _, c := range []struct {
		body, want string
	}{
		{`{"user":0,"video":0,"start":-5}`, "negative start -5"},
		{`{"user":-1,"video":0,"start":3600}`, "unknown user -1"},
		{`{"user":0,"video":-1,"start":3600}`, "unknown video -1"},
	} {
		var req workload.Request
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Validate(nil, nil); err == nil || err.Error() != c.want {
			t.Fatalf("fixture bug: workload.Request.Validate says %v for %s, want %q", err, c.body, c.want)
		}
		resp, err := http.Post(base+"/v1/reservations", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.body, resp.StatusCode)
		}
		if body := errorBody(t, resp); body["error"] != c.want {
			t.Errorf("%s: error %q, want %q", c.body, body["error"], c.want)
		}
	}
	if routed := gw.Stats().Routed; routed != 0 {
		t.Errorf("routed_total %d after refused reservations, want 0", routed)
	}
	if reached.Load() {
		t.Error("a refused reservation reached the shard")
	}
}

// A reservation that arrives after it starts is refused at the door, before
// it can move the shard's close target: one such request must not push a
// shard's horizon a thousand hours on and turn away every valid reservation
// after it.
func TestGatewayRefusesArrivalAfterStart(t *testing.T) {
	r := testRig(t)
	url, _, _ := startShard(t, r, server.Options{Horizon: horizon.Config{EpochRequests: 1}, AdvanceLag: simtime.Hour})
	gw, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: url}},
		Retry:  fastRetry,
	})
	post := func(req api.ReservationRequest) *http.Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/reservations", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	late := simtime.Time(1000 * simtime.Hour)
	resp := post(api.ReservationRequest{User: 0, Video: 0, Start: simtime.Time(8*simtime.Minute + 8), At: &late})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("arrival after start: status %d, want 400", resp.StatusCode)
	}
	if body := errorBody(t, resp); !strings.Contains(body["error"], "after start") {
		t.Errorf("arrival after start: error %q does not name the defect", body["error"])
	}

	// Both valid reservations fire the trigger. At the first the shard's
	// newest arrival is still inside the lag, so nothing closes; the close
	// the second brings lands an hour behind it. Had the refused request
	// moved the shard's clock, the first would have closed the epoch at
	// 999 h and the second would be late.
	second := simtime.Time(2*simtime.Hour + 30*simtime.Minute)
	for _, start := range []simtime.Time{simtime.Time(30*simtime.Minute + 40), second} {
		resp = post(api.ReservationRequest{User: 0, Video: 0, Start: start})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("valid reservation at %v: status %d, want 202", start, resp.StatusCode)
		}
	}
	var plan api.PlanResponse
	deadline := time.Now().Add(5 * time.Second)
	for plan.Epoch == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second reservation's close never landed")
		}
		time.Sleep(5 * time.Millisecond)
		if err := retryhttp.GetJSON(context.Background(), fastRetry, url+"/v1/plan", &plan); err != nil {
			t.Fatal(err)
		}
	}
	if want := second.Add(-simtime.Hour); plan.Epoch != 1 || plan.Horizon != want || gw.Stats().Routed != 2 {
		t.Fatalf("shard at epoch %d, horizon %v after %d routed reservations, want epoch 1 at %v after 2",
			plan.Epoch, plan.Horizon, gw.Stats().Routed, want)
	}
}

// panicPolicy stands in for any bug on the routing path: Placement is
// caller-supplied code running inside the intake handler.
type panicPolicy struct{}

func (panicPolicy) Name() string                                { return "panic" }
func (panicPolicy) Place(gateway.RouteInfo, []gateway.View) int { panic("kaboom") }

// A handler panic is a 500 JSON reply on a connection that stays usable,
// not a torn connection.
func TestGatewayPanicRecovery(t *testing.T) {
	r := testRig(t)
	url, _, _ := startShard(t, r, server.Options{})
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: url}},
		Policy: panicPolicy{},
		Retry:  fastRetry,
	})
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	t.Cleanup(client.CloseIdleConnections)

	resp, err := client.Post(base+"/v1/reservations", "application/json",
		strings.NewReader(`{"user":0,"video":0,"start":3600}`))
	if err != nil {
		t.Fatalf("panicking handler tore the connection: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if body := errorBody(t, resp); strings.Contains(body["error"], "kaboom") {
		t.Errorf("panic value leaked to the client: %v", body)
	}

	reused := false
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
	req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !reused {
		t.Errorf("healthz after panic: status %d, connection reused %v; want 200 on the same connection", resp.StatusCode, reused)
	}
}

// A shard's 503 relayed to the client names when to come back, like the
// gateway's own shed does.
func TestGatewayRelayed503CarriesRetryAfter(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"request timed out"}`)
	}))
	t.Cleanup(shard.Close)
	_, base := startGateway(t, gateway.Config{
		Shards:  []gateway.ShardConfig{{ID: "s0", Primary: shard.URL}},
		Retry:   fastRetry,
		Breaker: gateway.BreakerConfig{Disabled: true},
	})

	resp, err := http.Post(base+"/v1/reservations", "application/json",
		strings.NewReader(`{"user":0,"video":0,"start":3600}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the relayed 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("relayed 503 Retry-After = %q, want \"1\"", ra)
	}
	if body := errorBody(t, resp); body["shard"] != "s0" {
		t.Errorf("relayed 503 does not name its shard: %v", body)
	}
}
