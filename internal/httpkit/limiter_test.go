package httpkit

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The limiter's contract, tested against a handler we can hold open
// deterministically: with 1 slot and no queue, a second concurrent
// request is shed immediately with 429 + Retry-After while the first
// completes normally.
func TestLimiterShedsAtSaturation(t *testing.T) {
	lim := NewLimiter(1, 0, time.Second)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := lim.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	firstStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/work")
		if err != nil {
			firstStatus <- 0
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	<-entered // the slot is now provably held

	resp, err := http.Get(ts.URL + "/work")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("shed reply Retry-After = %q, want a positive integer", ra)
	}
	if lim.Shed() != 1 {
		t.Fatalf("shed counter = %d, want 1", lim.Shed())
	}

	close(release)
	wg.Wait()
	if got := <-firstStatus; got != http.StatusOK {
		t.Fatalf("in-flight request completed with %d, want 200", got)
	}
}

// A queued request gets the slot when it frees within the wait budget,
// and is shed when it does not.
func TestLimiterQueue(t *testing.T) {
	t.Run("admitted-when-slot-frees", func(t *testing.T) {
		lim := NewLimiter(1, 1, 5*time.Second)
		release := make(chan struct{})
		entered := make(chan struct{}, 2)
		h := lim.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			if r.URL.Path == "/slow" {
				<-release
			}
			w.WriteHeader(http.StatusOK)
		}))
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)

		go http.Get(ts.URL + "/slow")
		<-entered

		done := make(chan int, 1)
		go func() {
			resp, err := http.Get(ts.URL + "/fast")
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		// Give the second request time to park in the queue, then free
		// the slot; the queued request must be admitted, not shed.
		time.Sleep(50 * time.Millisecond)
		close(release)
		if got := <-done; got != http.StatusOK {
			t.Fatalf("queued request: status %d, want 200", got)
		}
		if lim.Shed() != 0 {
			t.Fatalf("shed counter = %d, want 0", lim.Shed())
		}
	})

	t.Run("shed-after-wait", func(t *testing.T) {
		lim := NewLimiter(1, 1, 20*time.Millisecond)
		release := make(chan struct{})
		defer close(release)
		entered := make(chan struct{}, 1)
		h := lim.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-release
		}))
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)

		go http.Get(ts.URL + "/slow")
		<-entered
		resp, err := http.Get(ts.URL + "/fast")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("wait-expired request: status %d, want 429", resp.StatusCode)
		}
	})
}

// /healthz must answer while every slot is provably held.
func TestHealthzBypassesLimiter(t *testing.T) {
	lim := NewLimiter(1, 0, time.Second)
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	mux.HandleFunc("GET /work", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
	ts := httptest.NewServer(lim.Wrap(mux))
	t.Cleanup(ts.Close)

	go http.Get(ts.URL + "/work")
	<-entered
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz at saturation: %d", resp.StatusCode)
	}
}

// Work that is not a request holds a slot like one: while it does, a
// request at saturation is shed; a second Acquire waits until the context
// ends, and gets the slot once the first is released.
func TestLimiterAcquire(t *testing.T) {
	lim := NewLimiter(1, 0, time.Second)
	if !lim.Acquire(context.Background()) {
		t.Fatal("Acquire on a free limiter failed")
	}
	w := httptest.NewRecorder()
	lim.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("a request ran while Acquire held the only slot")
	})).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/work", nil))
	if w.Code != http.StatusTooManyRequests || lim.InFlight() != 1 {
		t.Fatalf("request beside an acquired slot: status %d, %d in flight; want 429, 1", w.Code, lim.InFlight())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if lim.Acquire(ctx) {
		t.Fatal("Acquire at saturation took a slot")
	}
	lim.Release()
	if !lim.Acquire(context.Background()) || lim.InFlight() != 1 {
		t.Fatalf("Acquire after Release: %d in flight, want 1", lim.InFlight())
	}
}
