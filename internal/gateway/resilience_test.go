package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/chaos"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// trySubmit posts one reservation without failing the test, returning
// the serving shard (on 202) or the error.
func trySubmit(t *testing.T, opts retryhttp.Options, base string, req workload.Request) (string, error) {
	t.Helper()
	at := req.Start
	var ack gateway.ReservationResponse
	err := retryhttp.PostJSON(context.Background(), opts, base+"/v1/reservations",
		api.ReservationRequest{User: req.User, Video: req.Video, Start: req.Start, At: &at}, &ack)
	return ack.Shard, err
}

// One partitioned shard must not veto the broadcast: the other shards'
// epoch results come back 200 with the dead shard named in failed.
func TestAdvancePartialFailure(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	var victims []*httptest.Server
	for i := 0; i < 3; i++ {
		url, _, ts := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
		victims = append(victims, ts)
	}
	_, base := startGateway(t, gateway.Config{Shards: shards, Retry: fastRetry})

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	var end simtime.Time
	for _, req := range reqs[:6] {
		submit(t, base, req)
		if req.Start > end {
			end = req.Start
		}
	}
	victims[1].Close() // partition s1 (no standby: failover has nowhere to go)

	var adv gateway.AdvanceResponse
	if err := retryhttp.PostJSON(context.Background(), fastRetry, base+"/v1/advance",
		api.AdvanceRequest{To: end.Add(simtime.Hour)}, &adv); err != nil {
		t.Fatalf("partial broadcast should answer 200, got %v", err)
	}
	if len(adv.Shards) != 2 {
		t.Fatalf("advance reported %d successful shards, want 2", len(adv.Shards))
	}
	for _, se := range adv.Shards {
		if se.Shard == "s1" {
			t.Fatal("dead shard listed among successes")
		}
	}
	if len(adv.Failed) != 1 || adv.Failed[0].Shard != "s1" || adv.Failed[0].Error == "" {
		t.Fatalf("failed list = %+v, want exactly s1 with an error", adv.Failed)
	}

	// With every shard gone the broadcast is a real error again.
	victims[0].Close()
	victims[2].Close()
	err := retryhttp.PostJSON(context.Background(), retryhttp.Options{MaxAttempts: 1},
		base+"/v1/advance", api.AdvanceRequest{To: end.Add(2 * simtime.Hour)}, nil)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Fatalf("all-shards-dead broadcast answered %v, want 502", err)
	}
}

// A shard answering every intake call with 5xx must be ejected from
// placement while the others keep serving, and must be let back in by a
// half-open probe once it recovers.
func TestBreakerEjectsFailingShardAndRecovers(t *testing.T) {
	r := testRig(t)
	var shards []gateway.ShardConfig
	var hosts []string
	for i := 0; i < 3; i++ {
		url, _, _ := startShard(t, r, server.Options{})
		shards = append(shards, gateway.ShardConfig{ID: fmt.Sprintf("s%d", i), Primary: url})
		hosts = append(hosts, strings.TrimPrefix(url, "http://"))
	}
	// s1 answers 500 (non-retryable, counted as a hard failure) for the
	// first 400ms of the test, then heals.
	faultFor := 400 * time.Millisecond
	inj := chaos.New(21, chaos.Rule{
		Host:  hosts[1],
		Until: faultFor,
		Fault: chaos.Fault{ErrProb: 1, Code: http.StatusInternalServerError},
	})
	upstream := retryhttp.Options{
		Client:      &http.Client{Transport: &chaos.Transport{Injector: inj}},
		MaxAttempts: 1,
	}
	_, base := startGateway(t, gateway.Config{
		Shards: shards,
		Retry:  upstream,
		Breaker: gateway.BreakerConfig{
			Window:      2 * time.Second,
			Buckets:     10,
			MinSamples:  3,
			FailureRate: 0.5,
			OpenFor:     150 * time.Millisecond,
		},
	})

	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	next := 0
	sub := func() (string, error) {
		req := reqs[next%len(reqs)]
		req.Start = req.Start.Add(simtime.Duration(next) * simtime.Minute)
		next++
		return trySubmit(t, retryhttp.Options{MaxAttempts: 1}, base, req)
	}

	// Phase 1: drive traffic until s1 has eaten enough 500s to trip.
	var s1Failures int
	for i := 0; i < 30 && s1Failures < 3; i++ {
		if _, err := sub(); err != nil {
			s1Failures++
		}
	}
	if s1Failures < 3 {
		t.Fatalf("failing shard absorbed only %d failures in 30 submits", s1Failures)
	}

	// Phase 2: with s1 ejected, everything lands on s0/s2 and succeeds.
	for i := 0; i < 12; i++ {
		shard, err := sub()
		if err != nil {
			t.Fatalf("submit with ejected shard failed: %v", err)
		}
		if shard == "s1" {
			t.Fatal("placement still routed to the ejected shard")
		}
	}
	st := gatewayStats(t, base)
	if st.HealthyShards != 2 {
		t.Fatalf("healthy_shards = %d with one ejection, want 2", st.HealthyShards)
	}
	if brk := st.Shards[1].Breaker; brk == nil || brk.State != "open" || brk.Ejections == 0 {
		t.Fatalf("s1 breaker block = %+v, want open with ejections", brk)
	}

	// Phase 3: after the fault window and the cool-off, traffic probes
	// s1 back to closed.
	time.Sleep(faultFor + 200*time.Millisecond)
	recovered := false
	for i := 0; i < 40 && !recovered; i++ {
		if shard, err := sub(); err == nil && shard == "s1" {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("healed shard never served again: breaker wedged open")
	}
	st = gatewayStats(t, base)
	if brk := st.Shards[1].Breaker; brk == nil || brk.State != "closed" {
		t.Fatalf("s1 breaker after recovery = %+v, want closed", brk)
	}
	if st.HealthyShards != 3 {
		t.Fatalf("healthy_shards = %d after recovery, want 3", st.HealthyShards)
	}
}

// When every shard is ejected the gateway itself sheds with 503 +
// Retry-After, counts it, and /readyz goes not-ready — then recovers.
func TestGatewayShedsWhenAllShardsEjected(t *testing.T) {
	r := testRig(t)
	url, _, _ := startShard(t, r, server.Options{})
	host := strings.TrimPrefix(url, "http://")
	faultFor := 400 * time.Millisecond
	inj := chaos.New(22, chaos.Rule{
		Host:  host,
		Until: faultFor,
		Fault: chaos.Fault{ErrProb: 1, Code: http.StatusInternalServerError},
	})
	_, base := startGateway(t, gateway.Config{
		Shards: []gateway.ShardConfig{{ID: "s0", Primary: url}},
		Retry: retryhttp.Options{
			Client:      &http.Client{Transport: &chaos.Transport{Injector: inj}},
			MaxAttempts: 1,
		},
		Breaker: gateway.BreakerConfig{
			Window:      2 * time.Second,
			MinSamples:  2,
			FailureRate: 0.5,
			OpenFor:     200 * time.Millisecond,
		},
	})

	var ready gateway.ReadyResponse
	if err := retryhttp.GetJSON(context.Background(), retryhttp.Options{MaxAttempts: 1}, base+"/readyz", &ready); err != nil || !ready.Ready {
		t.Fatalf("fresh gateway not ready: %+v, %v", ready, err)
	}

	body := func() *bytes.Reader {
		b, _ := json.Marshal(api.ReservationRequest{User: 0, Video: 0, Start: simtime.Time(simtime.Hour)})
		return bytes.NewReader(b)
	}
	// Two failures trip the only shard's breaker.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/reservations", "application/json", body())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("priming submit %d: status %d, want relayed 500", i, resp.StatusCode)
		}
	}
	// Now the gateway must shed without touching the shard.
	before := inj.Stats().Calls
	resp, err := http.Post(base+"/v1/reservations", "application/json", body())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-ejected submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed reply has no Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) != nil || !strings.Contains(e.Error, "ejected") {
		t.Fatalf("shed body %+v does not name the ejection", e)
	}
	if inj.Stats().Calls != before {
		t.Fatal("shed request still reached the shard")
	}

	err = retryhttp.GetJSON(context.Background(), retryhttp.Options{MaxAttempts: 1}, base+"/readyz", &ready)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all shards ejected answered %v, want 503", err)
	}
	st := gatewayStats(t, base)
	if st.GatewayShed == 0 {
		t.Fatalf("gateway_shed_total = %d, want > 0", st.GatewayShed)
	}

	// After the fault clears and the cool-off passes, a probe recovers
	// the tier: no wedged-open breaker.
	time.Sleep(faultFor + 300*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := trySubmit(t, retryhttp.Options{MaxAttempts: 1}, base,
			workload.Request{User: 0, Video: 0, Start: simtime.Time(2 * simtime.Hour)}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tier never recovered after faults cleared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := retryhttp.GetJSON(context.Background(), retryhttp.Options{MaxAttempts: 1}, base+"/readyz", &ready); err != nil || !ready.Ready {
		t.Fatalf("readyz after recovery: %+v, %v", ready, err)
	}
}

// ShardTimeout is the deadline the gateway propagates to the shard
// call: a shard sitting on a request cannot pin the intake worker (and
// the client) past the budget.
func TestShardTimeoutBoundsSlowShard(t *testing.T) {
	// A shard that never answers intake calls within the test's patience.
	// (It drains the body like a real server, so the net/http close
	// watcher can cancel its context when the gateway gives up.)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	}))
	defer slow.Close()

	_, base := startGateway(t, gateway.Config{
		Shards:       []gateway.ShardConfig{{ID: "s0", Primary: slow.URL}},
		Retry:        retryhttp.Options{MaxAttempts: 1},
		ShardTimeout: 150 * time.Millisecond,
	})

	start := time.Now()
	_, err := trySubmit(t, retryhttp.Options{MaxAttempts: 1}, base,
		workload.Request{User: 0, Video: 0, Start: simtime.Time(simtime.Hour)})
	elapsed := time.Since(start)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Fatalf("slow shard answered %v, want 502 after the budget", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not propagate: submit pinned for %v", elapsed)
	}

	// The client can tighten the budget below ShardTimeout per request, and
	// no budget it names loosens it: one too large for a time.Duration still
	// leaves ShardTimeout in force.
	reqBody, _ := json.Marshal(api.ReservationRequest{User: 0, Video: 0, Start: simtime.Time(simtime.Hour)})
	for _, budget := range []string{"50", "10000000000000"} {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/reservations", bytes.NewReader(reqBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Budget-Ms", budget)
		start = time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("budget-header %s submit: status %d, want 502", budget, resp.StatusCode)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("client budget %sms with a 150ms ShardTimeout took %v", budget, el)
		}
	}
}
