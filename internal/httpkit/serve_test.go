package httpkit

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// Cancelling ctx (what a SIGTERM does) lets the in-flight request finish,
// then runs closeFn, then returns nil: closeFn never runs under a live
// request.
func TestServeDrainsThenCloses(t *testing.T) {
	addr := freeAddr(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var handlerDone, closedAfterHandler atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, http.StatusOK, "ok") })
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		handlerDone.Store(true)
		WriteJSON(w, http.StatusOK, "done")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, "test", addr, mux, time.Second, func() error {
			closedAfterHandler.Store(handlerDone.Load())
			return nil
		})
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
	}

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-slow; got != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", got)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after a clean drain: %v", err)
	}
	if !closedAfterHandler.Load() {
		t.Error("closeFn ran before the in-flight request finished (or never)")
	}
}

// A listen failure is returned at once and closeFn is left alone.
func TestServeReturnsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := false
	err = Serve(context.Background(), "test", ln.Addr().String(), http.NotFoundHandler(), time.Second,
		func() error { closed = true; return nil })
	if err == nil || closed {
		t.Fatalf("Serve on a taken port: err %v, closeFn called %v; want an error and no close", err, closed)
	}
}
