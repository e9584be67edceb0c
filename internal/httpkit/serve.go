package httpkit

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// Serve listens on addr and serves handler until SIGINT, SIGTERM or the
// cancellation of ctx, then drains in-flight requests for up to 10
// seconds and calls closeFn — after the drain, so nothing it releases is
// still in use by a request. "listening on" is logged only once the
// signal handler is in place. Serve returns nil after a clean stop, the
// listen error when the server could not start, and an error without
// calling closeFn when the drain ran out of time. Its connection timeouts
// are constants: 30 s to read a request, 120 s to write a reply, and 120 s
// for a keep-alive connection to sit idle.
func Serve(ctx context.Context, name, addr string, handler http.Handler, closeFn func() error) error {
	srv := &http.Server{
		Addr:         addr,
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 120 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("%s: listening on %s", name, addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	log.Printf("%s: shutting down, draining for up to %v", name, drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: %v", name, err)
	}
	if err := closeFn(); err != nil {
		log.Printf("%s: close: %v", name, err)
	}
	log.Printf("%s: stopped", name)
	return nil
}
