package httpkit

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Limiter is admission control: a bounded in-flight limiter with a small
// wait queue. Scheduling requests are CPU-heavy, so under overload the
// failure mode of an unlimited server is the worst one — every request
// slows down until all of them time out while the connection count (and
// memory) grows without bound. The limiter instead admits up to
// maxInFlight requests, parks up to maxQueue more for at most wait, and
// sheds the rest immediately with 429 and a Retry-After header so
// well-behaved clients back off instead of piling on. GET /healthz
// bypasses the limiter: liveness probes must answer precisely when the
// server is saturated.
type Limiter struct {
	slots      chan struct{} // in-flight tokens
	queue      chan struct{} // wait-queue tokens
	wait       time.Duration
	retryAfter string
	shed       atomic.Uint64
}

// NewLimiter builds a Limiter with the given bounds.
func NewLimiter(maxInFlight, maxQueue int, wait time.Duration) *Limiter {
	return &Limiter{
		slots:      make(chan struct{}, maxInFlight),
		queue:      make(chan struct{}, maxQueue),
		wait:       wait,
		retryAfter: strconv.Itoa(int(math.Max(1, math.Ceil(wait.Seconds())))),
	}
}

// Shed returns how many requests were rejected with 429.
func (l *Limiter) Shed() uint64 { return l.shed.Load() }

// InFlight returns the number of requests currently admitted.
func (l *Limiter) InFlight() int { return len(l.slots) }

// Capacity returns the in-flight bound.
func (l *Limiter) Capacity() int { return cap(l.slots) }

// Wrap puts next behind the limiter.
func (l *Limiter) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Liveness and readiness probes bypass admission control: a load
		// balancer must get an answer precisely when the server is
		// saturated, and a readiness 503 under overload would eject a
		// perfectly serviceable node from rotation.
		if r.Method == http.MethodGet && (r.URL.Path == "/healthz" || r.URL.Path == "/readyz") {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case l.slots <- struct{}{}:
		default:
			// Saturated: take a queue token or shed on the spot.
			select {
			case l.queue <- struct{}{}:
			default:
				l.reject(w)
				return
			}
			timer := time.NewTimer(l.wait)
			select {
			case l.slots <- struct{}{}:
				timer.Stop()
				<-l.queue
			case <-timer.C:
				<-l.queue
				l.reject(w)
				return
			case <-r.Context().Done():
				timer.Stop()
				<-l.queue
				l.reject(w)
				return
			}
		}
		defer func() { <-l.slots }()
		next.ServeHTTP(w, r)
	})
}

func (l *Limiter) reject(w http.ResponseWriter) {
	l.shed.Add(1)
	w.Header().Set("Retry-After", l.retryAfter)
	WriteJSON(w, http.StatusTooManyRequests,
		map[string]string{"error": "server overloaded; retry after backoff"})
}
