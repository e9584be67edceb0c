package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

func TestMiddleware(t *testing.T) {
	newSrv := func(in *Injector, body string) *httptest.Server {
		srv := httptest.NewServer(in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		})))
		t.Cleanup(srv.Close)
		return srv
	}

	t.Run("error injection", func(t *testing.T) {
		srv := newSrv(New(9, Rule{Fault: Fault{ErrProb: 1, Code: 502}}), "ok")
		resp, body, err := get(t, http.DefaultClient, srv.URL)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if resp.StatusCode != 502 || !strings.Contains(body, "chaos") {
			t.Fatalf("got %d %q", resp.StatusCode, body)
		}
	})

	t.Run("drop aborts connection", func(t *testing.T) {
		srv := newSrv(New(9, Rule{Fault: Fault{Drop: 1}}), "ok")
		if _, _, err := get(t, http.DefaultClient, srv.URL); err == nil {
			t.Fatalf("dropped connection should error")
		}
	})

	t.Run("path scoping", func(t *testing.T) {
		srv := newSrv(New(9, Rule{Path: "/bad", Fault: Fault{ErrProb: 1, Code: 503}}), "ok")
		resp, _, err := get(t, http.DefaultClient, srv.URL+"/good")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("unscoped path: %v %v", resp, err)
		}
		resp, _, err = get(t, http.DefaultClient, srv.URL+"/bad/sub")
		if err != nil || resp.StatusCode != 503 {
			t.Fatalf("scoped path prefix: %v %v", resp, err)
		}
	})

	t.Run("dirty cut tears body", func(t *testing.T) {
		srv := newSrv(New(9, Rule{Fault: Fault{CutProb: 1, CutAfter: 5}}), strings.Repeat("y", 4096))
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("dirty middleware cut should tear the read, got %d clean bytes", len(b))
		}
	})

	t.Run("clean cut truncates body", func(t *testing.T) {
		srv := newSrv(New(9, Rule{Fault: Fault{CutProb: 1, CutAfter: 5, CutClean: true}}), "1234567890")
		_, body, err := get(t, http.DefaultClient, srv.URL)
		if err != nil {
			t.Fatalf("clean cut read: %v", err)
		}
		if body != "12345" {
			t.Fatalf("clean cut body = %q, want %q", body, "12345")
		}
	})
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

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("latency=50ms..200ms,from=10s,until=30s,host=a:1; err=0.3:502,period=2s,duty=0.5,path=/v1/plan")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	r0 := rules[0]
	if r0.Host != "a:1" || r0.From != 10*time.Second || r0.Until != 30*time.Second ||
		r0.Fault.LatencyMin != 50*time.Millisecond || r0.Fault.LatencyMax != 200*time.Millisecond {
		t.Fatalf("rule 0 = %+v", r0)
	}
	r1 := rules[1]
	if r1.Fault.ErrProb != 0.3 || r1.Fault.Code != 502 || r1.Period != 2*time.Second || r1.Duty != 0.5 || r1.Path != "/v1/plan" {
		t.Fatalf("rule 1 = %+v", r1)
	}

	// Malformed specs, and specs that would panic the handler they wrap or
	// never fire, are refused; the values at the edge of each range are not.
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"", false},
		{"bogus=1", false},
		{"latency=xyz", false},
		{"drop=1,period=5s", false}, // flapping without duty
		{"err", false},
		{"err=1:99", false}, // WriteHeader panics on a code below 100
		{"err=1:-1", false},
		{"err=1:399", false},
		{"err=1:600", false},
		{"err=1:400", true},
		{"err=1:599", true},
		{"err=1.5", false},
		{"err=-0.1", false},
		{"drop=NaN", false},
		{"drop=2", false},
		{"drop=0", true},
		{"drop=1", true},
		{"cut=1:-3", false}, // never cuts
		{"cut=Inf", false},
		{"cut=1:0", true},
		{"duty=NaN,period=1s", false}, // NaN fails every comparison, so the rule never flaps
		{"duty=1.5", false},
		{"duty=1,period=1s", true},
		{"drop=1,period=-1s", false},
		{"drop=1,from=-1s", false},
		{"drop=1,until=-1s", false},
		{"drop=1,period=1s,duty=0.5,phase=-1s", false},
		{"latency=-5s", false},
		{"latency=10ms..-5ms", false},
		{"latency=50ms..10ms", false},
		{"latency=5ms..5ms", true},
		{"latency=0s", true},
	} {
		_, err := ParseSpec(tc.spec)
		if got := err == nil; got != tc.ok {
			t.Errorf("ParseSpec(%q): accepted = %v, want %v (err: %v)", tc.spec, got, tc.ok, err)
		}
	}
}

// fuzzClock stands still at now and sleeps for no time, so a spec's
// latency costs the fuzzer nothing.
type fuzzClock struct{ now time.Time }

func (c *fuzzClock) Now() time.Time                             { return c.now }
func (c *fuzzClock) Sleep(context.Context, time.Duration) error { return nil }

// FuzzParseSpec holds ParseSpec to what vspserve -chaos relies on: every
// spec it accepts drives the middleware and the transport through one
// request, at any point of its rules' windows, without a panic — other than
// http.ErrAbortHandler, the middleware's documented way of severing a
// connection.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"latency=50ms..200ms,from=10s,until=30s,host=a:1; err=0.3:502,period=2s,duty=0.5,path=/v1/plan",
		"drop=1", "err=1:429", "cut=1:3", "cut=1:0;err=1", "latency=1ms,drop=0.5,period=100ms,duty=0.3,phase=20ms",
		"err=1:99", "cut=1:-3", "duty=NaN,period=1s",
	} {
		f.Add(s, uint32(0))
		f.Add(s, uint32(15000))
	}
	f.Fuzz(func(t *testing.T, spec string, elapsedMs uint32) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		clock := &fuzzClock{now: time.Unix(0, 0)}
		in := NewWithClock(clock, 1, rules...)
		clock.now = clock.now.Add(time.Duration(elapsedMs) * time.Millisecond)
		const body = "{\"ok\":true}\n"

		h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			io.WriteString(w, body)
		}))
		func() {
			defer func() {
				if p := recover(); p != nil && p != http.ErrAbortHandler {
					t.Fatalf("spec %q: the middleware panicked: %v", spec, p)
				}
			}()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "http://a:1/v1/plan", nil))
		}()

		tr := &Transport{Injector: in, Base: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header),
				Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)), Request: r}, nil
		})}
		resp, err := tr.RoundTrip(httptest.NewRequest(http.MethodGet, "http://a:1/v1/plan", nil))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
