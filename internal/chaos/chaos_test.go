package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newBackend(t *testing.T, hits *atomic.Int64, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, string(b), err
}

// Same seed, same rules, same call sequence => identical fault decisions.
func TestSeedDeterminism(t *testing.T) {
	srv := newBackend(t, nil, "ok")
	run := func(seed int64) []int {
		in := New(seed, Rule{Fault: Fault{ErrProb: 0.5, Code: 503}})
		client := &http.Client{Transport: &Transport{Injector: in}}
		var codes []int
		for i := 0; i < 64; i++ {
			resp, _, err := get(t, client, srv.URL)
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			codes = append(codes, resp.StatusCode)
		}
		return codes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical 64-call fault sequences")
	}
	saw503 := false
	for _, code := range a {
		if code == 503 {
			saw503 = true
		}
	}
	if !saw503 {
		t.Fatalf("ErrProb 0.5 never fired in 64 calls")
	}
}

// A flapping drop rule on a virtual clock is exact: active during the
// duty fraction of each period, silent otherwise, gone after Until.
func TestFlapDutyCycleVirtualClock(t *testing.T) {
	srv := newBackend(t, nil, "ok")
	vc := NewVirtualClock(time.Unix(1000, 0))
	in := NewWithClock(vc, 1, Rule{
		Until:  time.Second,
		Period: 100 * time.Millisecond,
		Duty:   0.5,
		Fault:  Fault{Drop: 1},
	})
	client := &http.Client{Transport: &Transport{Injector: in}}

	probe := func() bool {
		_, _, err := get(t, client, srv.URL)
		return err != nil
	}
	for i, step := range []struct {
		advance time.Duration
		dropped bool
	}{
		{0, true},                       // elapsed 0: in duty window
		{30 * time.Millisecond, true},   // 30ms: still active
		{30 * time.Millisecond, false},  // 60ms: past 50% duty
		{30 * time.Millisecond, false},  // 90ms: still off
		{30 * time.Millisecond, true},   // 120ms: next period
		{940 * time.Millisecond, false}, // 1.06s: window expired
	} {
		vc.Advance(step.advance)
		if got := probe(); got != step.dropped {
			t.Fatalf("step %d (elapsed %v): dropped=%v, want %v", i, in.Elapsed(), got, step.dropped)
		}
	}
	if s := in.Stats(); s.Dropped == 0 {
		t.Fatalf("stats recorded no drops: %+v", s)
	}
}

// An asymmetric partition: A's client cannot reach B while B's client
// still reaches A, because the faults live in each caller's transport.
func TestAsymmetricPartition(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	srvA := newBackend(t, &hitsA, "a")
	srvB := newBackend(t, &hitsB, "b")

	hostB := strings.TrimPrefix(srvB.URL, "http://")
	clientA := &http.Client{Transport: &Transport{
		Injector: New(3, Rule{Host: hostB, Fault: Fault{Drop: 1}}),
	}}
	clientB := &http.Client{Transport: &Transport{Injector: New(4)}}

	if _, _, err := get(t, clientA, srvB.URL); err == nil {
		t.Fatalf("A -> B should be dead")
	}
	if hitsB.Load() != 0 {
		t.Fatalf("dropped request still reached B")
	}
	if _, body, err := get(t, clientB, srvA.URL); err != nil || body != "a" {
		t.Fatalf("B -> A should be fine, got body=%q err=%v", body, err)
	}
	// And A can still reach other hosts: the rule is scoped to B.
	if _, body, err := get(t, clientA, srvA.URL); err != nil || body != "a" {
		t.Fatalf("A -> A should be fine, got body=%q err=%v", body, err)
	}
}

func TestTransportCutBody(t *testing.T) {
	srv := newBackend(t, nil, strings.Repeat("x", 1000))

	dirty := &http.Client{Transport: &Transport{
		Injector: New(5, Rule{Fault: Fault{CutProb: 1, CutAfter: 10}}),
	}}
	resp, err := dirty.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("dirty cut: want io.ErrUnexpectedEOF, got %v (read %d bytes)", err, len(b))
	}
	if len(b) != 10 {
		t.Fatalf("dirty cut kept %d bytes, want 10", len(b))
	}

	clean := &http.Client{Transport: &Transport{
		Injector: New(5, Rule{Fault: Fault{CutProb: 1, CutAfter: 10, CutClean: true}}),
	}}
	_, body, err := get(t, clean, srv.URL)
	if err != nil {
		t.Fatalf("clean cut should read without error, got %v", err)
	}
	if body != strings.Repeat("x", 10) {
		t.Fatalf("clean cut body = %q", body)
	}
}

// Injected latency is applied before the request is forwarded, so a
// context that expires mid-delay means the upstream never saw the call.
func TestLatencyPreForwardRespectsContext(t *testing.T) {
	var hits atomic.Int64
	srv := newBackend(t, &hits, "ok")
	in := New(6, Rule{Fault: Fault{LatencyMin: time.Second, LatencyMax: time.Second}})
	client := &http.Client{Transport: &Transport{Injector: in}}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatalf("expected context expiry")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("context expiry took %v, delay was not abortable", el)
	}
	if hits.Load() != 0 {
		t.Fatalf("delayed-then-cancelled request reached the backend")
	}
}

func TestRandomRulesDeterministicAndBounded(t *testing.T) {
	hosts := []string{"h1:1", "h2:2", "h3:3"}
	a := RandomRules(42, hosts, 4*time.Second)
	b := RandomRules(42, hosts, 4*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("rule counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rule %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	perHost := map[string]int{}
	for _, r := range a {
		if r.Until <= r.From || r.Until > 4*time.Second {
			t.Fatalf("rule window out of bounds: %+v", r)
		}
		if r.Fault.CutProb > 0 && r.Path != "/v1/plan" {
			t.Fatalf("cut rule not scoped to reads: %+v", r)
		}
		perHost[r.Host]++
	}
	for _, h := range hosts {
		if perHost[h] == 0 {
			t.Fatalf("host %s got no episodes", h)
		}
	}
}
