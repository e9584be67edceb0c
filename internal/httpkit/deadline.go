package httpkit

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"
)

// DeadlineHandler bounds a request's handling time cooperatively: the
// handler runs on the connection's own goroutine with the deadline on its
// request context (context.WithTimeout), and is expected to come back when
// that context expires. What it wrote is what the client gets; only a
// handler that came back past the deadline having written nothing is
// answered for, with a 503 {"error":"request timed out"}. There is no
// second goroutine and no buffered body, so a reply always says what
// actually happened — a handler that ignores its context and finishes late
// is delivered late, not disowned while its effects land anyway.
//
// The layer costs a request a timer, a context and net/http's copy of the
// Request that carries it, and buys nothing for a handler that never hands
// its context on: put it on the routes whose work can stop, not on a whole
// router.
type DeadlineHandler struct {
	next     http.Handler
	d        time.Duration
	exceeded atomic.Uint64
}

// Deadline puts next behind a handling budget of d.
func Deadline(next http.Handler, d time.Duration) *DeadlineHandler {
	return &DeadlineHandler{next: next, d: d}
}

// Exceeded returns how many requests this layer answered 503 itself.
func (h *DeadlineHandler) Exceeded() uint64 { return h.exceeded.Load() }

var errTimedOut = errors.New("request timed out")

func (h *DeadlineHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := wrap(w)
	ctx, cancel := context.WithTimeout(r.Context(), h.d)
	defer cancel()
	h.next.ServeHTTP(rw, r.WithContext(ctx))
	if !rw.wrote && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		h.exceeded.Add(1)
		WriteErr(rw, http.StatusServiceUnavailable, errTimedOut)
	}
}
