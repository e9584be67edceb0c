package httpkit

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DeadlineHandler bounds a request's handling time cooperatively: the
// handler runs on the connection's own goroutine with the deadline on its
// request context, and is expected to come back when that context expires.
// What it wrote is what the client gets; only a handler that came back past
// the deadline having written nothing is answered for, with a 503
// {"error":"request timed out"}. There is no second goroutine and no
// buffered body, so a reply always says what actually happened — a handler
// that ignores its context and finishes late is delivered late, not
// disowned while its effects land anyway.
//
// The deadline costs a request one context value and net/http's copy of the
// Request that carries it; the timer behind it is armed by the first
// Done or Err, so a handler that never looks at its context pays for none.
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
	ctx := &deadlineCtx{parent: r.Context(), at: time.Now().Add(h.d)}
	defer ctx.release()
	h.next.ServeHTTP(rw, r.WithContext(ctx))
	if !rw.wrote && !time.Now().Before(ctx.at) {
		h.exceeded.Add(1)
		WriteErr(rw, http.StatusServiceUnavailable, errTimedOut)
	}
}

// deadlineCtx is parent with a deadline whose timer is armed on demand:
// Done and Err build the real context.WithDeadline the first time either is
// asked, and from then on answer from it.
type deadlineCtx struct {
	parent context.Context
	at     time.Time

	mu     sync.Mutex
	armed  context.Context
	disarm context.CancelFunc
}

func (c *deadlineCtx) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.disarm = context.WithDeadline(c.parent, c.at)
	}
	return c.armed
}

// release stops the timer, if one was armed. A goroutine the handler left
// behind may still arm one afterwards; that timer goes with the parent,
// which net/http cancels when the handler returns, or at the deadline.
func (c *deadlineCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disarm != nil {
		c.disarm()
	}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	if at, ok := c.parent.Deadline(); ok && at.Before(c.at) {
		return at, true
	}
	return c.at, true
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.arm().Done() }
func (c *deadlineCtx) Err() error            { return c.arm().Err() }

// Value answers from the armed context once there is one. That is what lets
// package context recognise its own cancelCtx behind this type and hang a
// derived context (WithCancel, WithTimeout) on it directly; deriving from a
// context type it cannot see through costs a watcher goroutine each time.
func (c *deadlineCtx) Value(key any) any {
	c.mu.Lock()
	armed := c.armed
	c.mu.Unlock()
	if armed != nil {
		return armed.Value(key)
	}
	return c.parent.Value(key)
}
