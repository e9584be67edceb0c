package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
)

// lossyProxy forwards every request to target and relays the reply, except
// the first reservation: lose writes what the gateway gets for it instead,
// after the shard has handled it when forwarded is set, without the shard
// seeing it otherwise.
func lossyProxy(t *testing.T, target string, forwarded bool, lose func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	var reservations atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first := r.URL.Path == "/v1/reservations" && reservations.Add(1) == 1
		if first && !forwarded {
			lose(w)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if first {
			lose(w)
			return
		}
		for k, vs := range resp.Header {
			w.Header()[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// A shard that journaled a reservation but whose reply never reached the
// gateway is not sent it again: the client gets an error that says the
// outcome is unknown, and the shard holds the reservation once. A reply lost
// to a closed connection is a 502; one replaced by a 503 keeps its status.
func TestGatewayNeverResendsAReservationWithALostReply(t *testing.T) {
	for _, tc := range []struct {
		name string
		code int
		lose func(w http.ResponseWriter)
	}{
		{"connection closed", http.StatusBadGateway, func(w http.ResponseWriter) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
		}},
		{"503", http.StatusServiceUnavailable, func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := testRig(t)
			shard, _, _ := startShard(t, rig, server.Options{})
			proxy := lossyProxy(t, shard, true, tc.lose)
			_, base := startGateway(t, gateway.Config{
				Shards: []gateway.ShardConfig{{ID: "s0", Primary: proxy.URL}},
				Retry:  fastRetry,
			})

			q := rig.Requests[0]
			err := retryhttp.PostJSON(context.Background(), retryhttp.Options{MaxAttempts: 1}, base+"/v1/reservations",
				api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, nil)
			var se *retryhttp.StatusError
			if !errors.As(err, &se) || se.Code != tc.code || !strings.Contains(se.Message, "outcome unknown") {
				t.Fatalf("gateway answered %v, want a %d saying the outcome is unknown", err, tc.code)
			}
			var plan struct {
				Pending int `json:"pending"`
			}
			if err := retryhttp.GetJSON(context.Background(), fastRetry, shard+"/v1/plan", &plan); err != nil {
				t.Fatal(err)
			}
			if plan.Pending != 1 {
				t.Fatalf("the shard holds %d reservations, want 1: the gateway re-sent one whose outcome it could not know", plan.Pending)
			}
		})
	}
}

// A 429 is the shard's admission limiter shedding the request before any
// handler ran, so the gateway sends it again, and the second try is accepted.
func TestGatewayResendsAShedReservation(t *testing.T) {
	rig := testRig(t)
	shard, _, _ := startShard(t, rig, server.Options{})
	var shed atomic.Int32
	proxy := lossyProxy(t, shard, false, func(w http.ResponseWriter) {
		shed.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	})
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: proxy.URL}},
		Retry:  fastRetry,
	})
	q := rig.Requests[0]
	if err := retryhttp.PostJSON(context.Background(), retryhttp.Options{MaxAttempts: 1}, base+"/v1/reservations",
		api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start}, nil); err != nil {
		t.Fatalf("a reservation shed once was not re-sent: %v", err)
	}
	var plan struct {
		Pending int `json:"pending"`
	}
	if err := retryhttp.GetJSON(context.Background(), fastRetry, shard+"/v1/plan", &plan); err != nil {
		t.Fatal(err)
	}
	if shed.Load() != 1 || plan.Pending != 1 {
		t.Fatalf("shed %d times, the shard holds %d; want 1 and 1", shed.Load(), plan.Pending)
	}
}
