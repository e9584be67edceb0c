package gateway_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/server"
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
	big := `{"user":0,"video":0,"start":3600,"pad":"` + strings.Repeat("x", server.DefaultMaxRequestBytes) + `"}`
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
