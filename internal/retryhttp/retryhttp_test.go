package retryhttp_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/retryhttp"
)

// fastOpts keeps the backoff far below test timeouts.
func fastOpts() retryhttp.Options {
	return retryhttp.Options{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// A transient 503 burst is retried until the server recovers.
func TestRetriesTransientStatus(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	var out struct {
		OK bool `json:"ok"`
	}
	if err := retryhttp.GetJSON(context.Background(), fastOpts(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 3 {
		t.Fatalf("ok=%v after %d hits, want success on 3rd", out.OK, hits.Load())
	}
}

// Protocol answers — 4xx and plain 500 — must surface immediately: they
// are deterministic, and a retry only repeats them.
func TestNoRetryOnTerminalStatus(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusConflict, http.StatusInternalServerError} {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"nope"}`))
		}))
		err := retryhttp.GetJSON(context.Background(), fastOpts(), ts.URL, nil)
		ts.Close()
		var se *retryhttp.StatusError
		if !errors.As(err, &se) || se.Code != code || se.Message != "nope" {
			t.Fatalf("status %d: got %v, want StatusError carrying the body's error", code, err)
		}
		if hits.Load() != 1 {
			t.Fatalf("status %d retried %d times, want exactly 1 attempt", code, hits.Load())
		}
	}
}

// Exhausted retries still return the terminal response rather than
// swallowing it.
func TestExhaustionReturnsLastStatus(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"still down"}`))
	}))
	defer ts.Close()

	opts := fastOpts()
	opts.MaxAttempts = 3
	err := retryhttp.GetJSON(context.Background(), opts, ts.URL, nil)
	var se *retryhttp.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want terminal 503 StatusError", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("%d attempts, want 3", hits.Load())
	}
}

// A server-supplied Retry-After longer than MaxDelay is capped: the
// client backs off, but never for longer than its own ceiling — nor for
// less, however many seconds the header names.
func TestRetryAfterIsCapped(t *testing.T) {
	for _, header := range []string{"3600", "10000000000"} {
		t.Run(header, func(t *testing.T) {
			var hits atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					w.Header().Set("Retry-After", header)
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				w.Write([]byte(`{}`))
			}))
			defer ts.Close()

			opts := fastOpts()
			opts.MaxDelay = 200 * time.Millisecond
			start := time.Now()
			if err := retryhttp.GetJSON(context.Background(), opts, ts.URL, nil); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("waited %v; Retry-After was not capped at MaxDelay", elapsed)
			} else if elapsed < opts.MaxDelay {
				t.Fatalf("waited %v; Retry-After %s should have held the retry back for MaxDelay %v", elapsed, header, opts.MaxDelay)
			}
			if hits.Load() != 2 {
				t.Fatalf("%d attempts, want 2", hits.Load())
			}
		})
	}
}

// Transport-level failures (no response at all) are retried and, when
// persistent, reported as an error rather than a response.
func TestTransportErrorExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens here anymore

	opts := fastOpts()
	opts.MaxAttempts = 3
	err := retryhttp.GetJSON(context.Background(), opts, url, nil)
	if err == nil {
		t.Fatal("dead endpoint reported success")
	}
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		t.Fatalf("transport failure surfaced as StatusError: %v", err)
	}
}

// Context cancellation interrupts the backoff sleep promptly: with an
// hour-long backoff pending, the call must return within milliseconds of
// cancel, not after the timer.
func TestContextCancelDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	opts := retryhttp.Options{BaseDelay: time.Hour, MaxDelay: time.Hour}
	done := make(chan error, 1)
	go func() { done <- retryhttp.GetJSON(ctx, opts, ts.URL, nil) }()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to interrupt the backoff", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff")
	}
}

// An already-expired context short-circuits before any attempt: no
// request reaches the server and the context error surfaces directly.
func TestAlreadyExpiredContext(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := retryhttp.GetJSON(ctx, fastOpts(), ts.URL, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired context took %v to surface", elapsed)
	}
	if hits.Load() != 0 {
		t.Fatalf("expired context still reached the server %d times", hits.Load())
	}
}

// A deadline shorter than the pending backoff bounds the whole call: the
// client gives up at the deadline instead of finishing the sleep, and the
// deadline error is not laundered into a retryable transport failure.
func TestShortDeadlineBoundsBackoff(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	opts := retryhttp.Options{BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	err := retryhttp.GetJSON(ctx, opts, ts.URL, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to bound the backoff", elapsed)
	}
	if hits.Load() != 1 {
		t.Fatalf("%d attempts inside a 25ms deadline with 1h backoff, want exactly 1", hits.Load())
	}
}

// PostJSON sends a fresh body on every attempt — a retried request must
// not arrive with a drained reader.
func TestPostBodyResentOnRetry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			N int `json:"n"`
		}
		if err := decodeInto(r, &in); err != nil || in.N != 42 {
			t.Errorf("attempt %d: bad body (%v, n=%d)", hits.Load()+1, err, in.N)
		}
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	in := struct {
		N int `json:"n"`
	}{N: 42}
	if err := retryhttp.PostJSON(context.Background(), fastOpts(), ts.URL, in, nil); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("%d attempts, want 2", hits.Load())
	}
}

func decodeInto(r *http.Request, v any) error {
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
