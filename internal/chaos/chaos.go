// Package chaos injects deterministic, seeded faults into HTTP traffic.
//
// An Injector evaluates a set of scripted Rules — each a time window
// (optionally flapping with a duty cycle) scoped to a host/path and
// carrying a Fault — against every call. Faults compose added latency,
// hard connection drops, synthesized 5xx answers, and mid-body response
// cuts. The same Injector drives both sides of a connection:
//
//   - Transport wraps an http.RoundTripper, so a *client's* view of a
//     peer degrades. Because each client owns its transport, asymmetric
//     partitions (A→B dead while B→A is fine) fall out naturally: give
//     only A's client a drop rule for B's host.
//   - Middleware wraps an http.Handler, so a *server* misbehaves for
//     everyone who calls it.
//
// All randomness flows from a single seeded source, and time flows
// through a Clock, so a given (seed, rules, request sequence) replays
// identically — including under a VirtualClock where flap phases are
// exact.
//
// Fault ordering is chosen so that injected failures are unambiguous to
// the caller: latency is applied *before* the request is forwarded (a
// context expiring mid-sleep means the upstream never saw the request),
// and drops and synthesized error codes never forward at all. Only a
// cut touches a real upstream exchange, truncating the response body
// after it has been served.
package chaos

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what happens to a call matched by an active Rule.
// Probabilities are rolled independently per call from the injector's
// seeded source; zero values mean "not this fault".
type Fault struct {
	// LatencyMin/LatencyMax add a delay drawn uniformly from
	// [LatencyMin, LatencyMax] before the call proceeds. Equal values
	// give a fixed delay.
	LatencyMin time.Duration
	LatencyMax time.Duration

	// Drop is the probability the connection is severed: the transport
	// returns a transport-level error, the middleware aborts the
	// connection. The request is never forwarded.
	Drop float64

	// ErrProb is the probability a synthesized HTTP error (status
	// Code, default 503) is answered without forwarding the request.
	ErrProb float64
	Code    int

	// CutProb is the probability the *response body* is truncated
	// after CutAfter bytes. CutClean ends the body with a silent EOF
	// instead of an unexpected-EOF error, modelling a torn-but-tidy
	// proxy. Cuts only make sense where the request was forwarded.
	CutProb  float64
	CutAfter int
	CutClean bool
}

// Rule scopes a Fault to a target and a time window.
type Rule struct {
	// Host matches the request's target host (exact match, including
	// port, as seen by the transport or server). Empty matches any.
	Host string
	// Path matches by prefix on the request path. Empty matches any.
	Path string

	// [From, Until) bounds the window relative to the injector's
	// start. Until == 0 means "forever".
	From  time.Duration
	Until time.Duration

	// Period > 0 makes the rule flap: within its window it is active
	// only while ((elapsed - From + Phase) mod Period) < Duty*Period.
	Period time.Duration
	Duty   float64
	Phase  time.Duration

	Fault Fault
}

func (r Rule) activeAt(elapsed time.Duration) bool {
	if elapsed < r.From {
		return false
	}
	if r.Until > 0 && elapsed >= r.Until {
		return false
	}
	if r.Period > 0 {
		into := (elapsed - r.From + r.Phase) % r.Period
		if float64(into) >= r.Duty*float64(r.Period) {
			return false
		}
	}
	return true
}

func (r Rule) matches(host, path string) bool {
	if r.Host != "" && r.Host != host {
		return false
	}
	if r.Path != "" && !strings.HasPrefix(path, r.Path) {
		return false
	}
	return true
}

// Stats is a snapshot of the injector's fault counters.
type Stats struct {
	Calls   uint64 `json:"calls"`
	Delayed uint64 `json:"delayed"`
	Dropped uint64 `json:"dropped"`
	Errored uint64 `json:"errored"`
	Cut     uint64 `json:"cut"`
}

// Injector owns the rule set, the seeded randomness and the clock. It
// is safe for concurrent use; one injector typically backs many
// transports and middlewares so one seed governs a whole scenario.
type Injector struct {
	mu    sync.Mutex
	rnd   *rand.Rand
	rules []Rule
	clock Clock
	start time.Time

	calls   atomic.Uint64
	delayed atomic.Uint64
	dropped atomic.Uint64
	errored atomic.Uint64
	cut     atomic.Uint64
}

// New builds an injector on the wall clock.
func New(seed int64, rules ...Rule) *Injector {
	return NewWithClock(RealClock(), seed, rules...)
}

// NewWithClock builds an injector whose windows, flaps and injected
// latency all run on the given clock.
func NewWithClock(c Clock, seed int64, rules ...Rule) *Injector {
	return &Injector{
		rnd:   rand.New(rand.NewSource(seed)),
		rules: rules,
		clock: c,
		start: c.Now(),
	}
}

// Elapsed is the injector-relative time used to evaluate rule windows.
func (in *Injector) Elapsed() time.Duration {
	return in.clock.Now().Sub(in.start)
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:   in.calls.Load(),
		Delayed: in.delayed.Load(),
		Dropped: in.dropped.Load(),
		Errored: in.errored.Load(),
		Cut:     in.cut.Load(),
	}
}

// outcome is the composed fault decision for one call. Precedence on
// conflicting rolls is drop > error code > cut; delays accumulate.
type outcome struct {
	delay    time.Duration
	drop     bool
	code     int
	cut      int // bytes to keep; -1 = no cut
	cutClean bool
}

func (in *Injector) decide(host, path string) outcome {
	in.calls.Add(1)
	o := outcome{cut: -1}
	elapsed := in.Elapsed()

	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if !r.matches(host, path) || !r.activeAt(elapsed) {
			continue
		}
		f := r.Fault
		if f.LatencyMax > 0 || f.LatencyMin > 0 {
			lo, hi := f.LatencyMin, f.LatencyMax
			if hi < lo {
				hi = lo
			}
			d := lo
			if hi > lo {
				// Closed range: one more than the span, unless that overflows.
				n := int64(hi - lo)
				if n < math.MaxInt64 {
					n++
				}
				d += time.Duration(in.rnd.Int63n(n))
			}
			o.delay += d
		}
		if !o.drop && f.Drop > 0 && in.rnd.Float64() < f.Drop {
			o.drop = true
		}
		if o.code == 0 && f.ErrProb > 0 && in.rnd.Float64() < f.ErrProb {
			o.code = f.Code
			if o.code == 0 {
				o.code = 503
			}
		}
		if o.cut < 0 && f.CutProb > 0 && in.rnd.Float64() < f.CutProb {
			o.cut = f.CutAfter
			o.cutClean = f.CutClean
		}
	}
	return o
}
