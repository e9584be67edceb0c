package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/testutil"
)

// TestPanicRecovery: a handler panic becomes a 500 JSON error, and the
// server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := New(f.Model)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("panic reply is not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Errorf("panic reply missing error field: %v", body)
	}
	if strings.Contains(body["error"], "kaboom") {
		t.Errorf("panic value leaked to the client: %v", body)
	}
	// The server must still be alive.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic = %d", resp2.StatusCode)
	}
}

// TestOversizedBodyRejected: a body over the cap gets 413, not an OOM.
func TestOversizedBodyRejected(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, f, Options{}))
	t.Cleanup(ts.Close)

	// A valid JSON prefix, so the decoder keeps reading until the cap
	// stops it (garbage would fail at byte 0 with 400).
	big := `{"user":0,"video":0,"start":0,"pad":"` + strings.Repeat("x", api.DefaultMaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/reservations", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestRequestTimeout: a request exceeding the budget gets 503 with the
// JSON timeout body.
func TestRequestTimeout(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{RequestTimeout: 50 * time.Millisecond})
	s.mux.Handle("GET /slow", s.timed(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// Timed-out clients must be told to back off exactly like shed ones.
	if resp.Header.Get("Retry-After") == "" {
		t.Error("timeout 503 missing Retry-After header")
	}
	body, _ := io.ReadAll(resp.Body)
	var msg map[string]string
	if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
		t.Errorf("timeout reply not a JSON error: %q", body)
	}
}

// A reservation that outlives the request budget must be answered with what
// happened to it. Behind http.TimeoutHandler the client was told 503 while
// the handler's abandoned goroutine went on to journal and admit it (Submit
// takes no context), so a client that retried as told was admitted twice.
// The handler here holds a decoded reservation past the budget, as a wait
// for the horizon lock behind an epoch close does, and then submits it:
// status and state must agree — 202 and pending, or 503 and not.
func TestReplyPastTheDeadlineMatchesTheState(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{RequestTimeout: 20 * time.Millisecond, DataDir: t.TempDir()})
	s.mux.HandleFunc("POST /held", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		time.Sleep(60 * time.Millisecond)
		r.Body = io.NopCloser(bytes.NewReader(body))
		s.handleReservation(w, r)
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	q := f.Requests[0]
	resp := postJSON(t, ts.URL+"/held", api.ReservationRequest{User: q.User, Video: q.Video, Start: q.Start})
	switch resp.StatusCode {
	case http.StatusAccepted:
		if n := s.horizon.Pending(); n != 1 {
			t.Fatalf("202, but %d reservations pending", n)
		}
	case http.StatusServiceUnavailable:
		// Whoever said 503 may have left the work running; give it time
		// to land before believing that it did not.
		for wait := time.Now().Add(500 * time.Millisecond); time.Now().Before(wait); time.Sleep(time.Millisecond) {
			if n := s.horizon.Pending(); n != 0 {
				t.Fatalf("503, and then %d reservation pending: the client was told to retry what was admitted", n)
			}
		}
	default:
		t.Fatalf("status %d, want 202 or 503", resp.StatusCode)
	}
}

// A 503 the deadline layer writes itself — the handler came back on its
// expired context with nothing written — shows in /v1/stats, once.
func TestDeadline503sAreCounted(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, f, Options{RequestTimeout: 50 * time.Millisecond})
	s.mux.Handle("GET /slow", s.timed(func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() }))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	exceeded := func() uint64 {
		_, stats := getAs[api.StatsResponse](t, ts.URL+"/v1/stats")
		return stats.Overload.DeadlineExceeded
	}
	before := exceeded()
	if code, _ := getAs[map[string]string](t, ts.URL+"/slow"); code != http.StatusServiceUnavailable {
		t.Fatalf("slow handler: status %d, want 503", code)
	}
	if after := exceeded(); before != 0 || after != 1 {
		t.Errorf("overload.deadline_exceeded went %d -> %d over one timed-out request, want 0 -> 1", before, after)
	}
}

// The request deadline is on the routes whose handlers can stop and on no
// other. First half: what the router holds for each of the server's routes —
// the handler itself, or the handler behind httpkit.Deadline. Second half:
// what either registration means inside a handler, through every layer of
// ServeHTTP — registered bare, it gets the very request ServeHTTP was given,
// on a context with no deadline; registered through timed, a context whose
// deadline is within RequestTimeout.
func TestDeadlineIsOnTheRoutesThatCanStop(t *testing.T) {
	f, err := testutil.NewFig2()
	if err != nil {
		t.Fatal(err)
	}
	const budget = time.Minute
	s := mustNew(t, f, Options{RequestTimeout: budget})

	routes := []struct {
		method, path string
		timed        bool
	}{
		{http.MethodGet, "/healthz", false},
		{http.MethodGet, "/readyz", false},
		{http.MethodGet, "/v1/topology", false},
		{http.MethodGet, "/v1/catalog", false},
		{http.MethodGet, "/v1/stats", false},
		{http.MethodPost, "/v1/reservations", false},
		{http.MethodGet, "/v1/plan", false},
		{http.MethodPost, "/v1/advance", true},
		{http.MethodGet, "/v1/replication/wal", false},
		{http.MethodGet, "/v1/replication/status", false},
		{http.MethodPost, "/v1/replication/fence", false},
		{http.MethodPost, "/v1/replication/promote", true},
	}
	timed := 0
	for _, rt := range routes {
		h, pattern := s.mux.Handler(httptest.NewRequest(rt.method, rt.path, nil))
		if pattern != rt.method+" "+rt.path {
			t.Errorf("%s %s is routed to %q", rt.method, rt.path, pattern)
			continue
		}
		switch h.(type) {
		case http.HandlerFunc:
			if rt.timed {
				t.Errorf("%s: the handler is registered bare, want it behind the deadline", pattern)
			}
		case *httpkit.DeadlineHandler:
			timed++
			if !rt.timed {
				t.Errorf("%s: the handler is behind the deadline, which it cannot act on", pattern)
			}
		default:
			t.Errorf("%s: registered as a %T, want the handler or the deadline layer around it", pattern, h)
		}
	}
	if len(s.deadline) != timed {
		t.Errorf("/v1/stats sums %d deadline layers, the router holds %d", len(s.deadline), timed)
	}

	var got *http.Request
	probe := func(w http.ResponseWriter, r *http.Request) {
		got = r
		w.WriteHeader(http.StatusNoContent)
	}
	s.mux.HandleFunc("GET /probe/bare", probe)
	s.mux.Handle("GET /probe/timed", s.timed(probe))

	req := httptest.NewRequest(http.MethodGet, "/probe/bare", nil)
	s.ServeHTTP(httptest.NewRecorder(), req)
	if got != req {
		t.Error("a bare route's handler got a copy of the request, not the one ServeHTTP was given")
	}
	if at, ok := got.Context().Deadline(); ok {
		t.Errorf("a bare route's handler runs under a deadline (%v)", at)
	}

	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/probe/timed", nil))
	if at, ok := got.Context().Deadline(); !ok || time.Until(at) > budget {
		t.Errorf("a timed route's handler: Deadline() = %v, %v, want one within %v", at, ok, budget)
	}
}

// FuzzScheduleDecode feeds arbitrary bodies to the busiest POST endpoint,
// the reservation intake: whatever arrives, the server must answer with a
// well-formed JSON reply and never panic (the recovery middleware turns a
// panic into a 500, which the fuzz target also treats as a failure —
// handlers should reject, not blow up). Every schedule the input decodes to
// must encode by Schedule.AppendJSON, the writer of plans and snapshots,
// exactly as json.Marshal encodes its mirror, testutil.Wire.
func FuzzScheduleDecode(f *testing.F) {
	fig, err := testutil.NewFig2()
	if err != nil {
		f.Fatal(err)
	}
	srv := New(fig.Model)
	f.Add([]byte(`{"requests":[{"user":0,"video":0,"start":0}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"requests":[{"user":-1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"requests":[{"user":0,"video":99,"start":-5}],"metric":"bogus"}`))
	f.Add([]byte(`{"files":{"10":{"video":10,"deliveries":[{"route":[0,1],"source_residency":-1}],"residencies":[]},"2":null,"-1":{"residencies":[{"fed_by":-1,"services":null}]}}}`))
	f.Add([]byte(`{"files":null}`))
	sameBytes := func(t *testing.T, what string, sched *schedule.Schedule) {
		want, err := json.Marshal(testutil.Wire(sched))
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s decodes to a schedule that encodes differently:\nAppendJSON   %s\nits mirror   %s", what, got, want)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sched *schedule.Schedule
		if json.Unmarshal(body, &sched) == nil {
			sameBytes(t, "the body", sched)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reservations", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("body %q produced a 500: %s", body, rec.Body.Bytes())
		}
		var reply any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("body %q produced non-JSON reply %q (status %d)", body, rec.Body.Bytes(), rec.Code)
		}
		if rec.Code == http.StatusAccepted {
			var ack api.ReservationResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || !ack.Accepted {
				t.Fatalf("body %q: the 202 reply %q is not an acceptance (%v)", body, rec.Body.Bytes(), err)
			}
		}
	})
}
