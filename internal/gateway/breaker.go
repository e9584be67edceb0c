package gateway

import (
	"sync"
	"time"
)

// Per-shard circuit breaking: placement stops routing to a shard whose
// recent intake calls fail or crawl (a *gray* failure — the shard still
// answers, too slowly to be useful), and lets it back in through a
// single half-open probe once a cool-off has passed. The classic state
// machine:
//
//	closed ──(failure+slow rate over the sliding window)──▶ open
//	open   ──(OpenFor elapsed; next placement probes)─────▶ half-open
//	half-open ──(probe succeeds)──▶ closed   (probe fails)──▶ open
//
// Only real intake traffic moves the machine, so a breaker can never
// wedge open: after OpenFor the next reservation is admitted as the
// probe, and its outcome decides.

// DefaultBreakerOpenFor is the cool-off of the zero BreakerConfig value.
const DefaultBreakerOpenFor = 5 * time.Second

// The other defaults of the zero BreakerConfig value, and the two settings
// every breaker shares: the window is counted in breakerBuckets rotating
// sub-spans, so old outcomes age out incrementally, and a breaker trips when
// (failures+slow)/total over the window reaches breakerFailureRate.
const (
	defaultBreakerWindow     = 10 * time.Second
	defaultBreakerMinSamples = 5
	breakerBuckets           = 10
	breakerFailureRate       = 0.5
)

// BreakerConfig tunes the per-shard circuit breakers. The zero value
// enables breakers with the defaults; set Disabled to run without them.
type BreakerConfig struct {
	// Disabled turns circuit breaking off entirely.
	Disabled bool
	// Window is the sliding observation window (default 10s).
	Window time.Duration
	// MinSamples is the minimum number of window outcomes before the
	// breaker may trip (default 5) — a single failed call on an idle
	// shard is not a statement about the shard.
	MinSamples int
	// SlowCall counts an intake call slower than this as bad even if it
	// succeeded — the gray-failure signal (0 disables slow accounting).
	SlowCall time.Duration
	// OpenFor is the cool-off before an open breaker admits its
	// half-open probe (default 5s).
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = defaultBreakerWindow
	}
	if c.MinSamples <= 0 {
		c.MinSamples = defaultBreakerMinSamples
	}
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultBreakerOpenFor
	}
	return c
}

type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// brkBucket is one rotating sub-span of the sliding window. idx is the
// absolute bucket number it currently holds, so stale buckets are
// detected lazily instead of by a sweeper goroutine.
type brkBucket struct {
	idx      int64
	ok, fail int
}

// breaker is one shard's circuit breaker. A nil *breaker is the
// disabled breaker: it admits everything and records nothing.
type breaker struct {
	cfg BreakerConfig

	mu         sync.Mutex
	state      breakerState
	buckets    [breakerBuckets]brkBucket
	openedAt   time.Time
	lastChange time.Time
	probing    bool
	ejections  uint64
}

func newBreaker(cfg BreakerConfig) *breaker {
	if cfg.Disabled {
		return nil
	}
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg}
}

func (b *breaker) bucketWidth() time.Duration {
	return b.cfg.Window / breakerBuckets
}

// bucketAt returns the live bucket for now, resetting it if it still
// holds an aged-out span. Callers hold b.mu.
func (b *breaker) bucketAt(now time.Time) *brkBucket {
	idx := now.UnixNano() / int64(b.bucketWidth())
	bk := &b.buckets[idx%breakerBuckets]
	if bk.idx != idx {
		*bk = brkBucket{idx: idx}
	}
	return bk
}

// windowTotals sums the still-fresh buckets. Callers hold b.mu.
func (b *breaker) windowTotals(now time.Time) (ok, fail int) {
	oldest := now.UnixNano()/int64(b.bucketWidth()) - breakerBuckets + 1
	for _, bk := range b.buckets {
		if bk.idx >= oldest {
			ok += bk.ok
			fail += bk.fail
		}
	}
	return ok, fail
}

// allow reports whether placement may route to this shard. An open
// breaker past its cool-off transitions to half-open and admits the
// caller as the single probe; place must release unused probe slots
// (the policy may pick another shard) via release.
func (b *breaker) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = stateHalfOpen
		b.lastChange = now
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// release returns an unused half-open probe slot (the placement policy
// admitted this shard but routed elsewhere).
func (b *breaker) release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.state == stateHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// record feeds one call outcome into the window. failed marks hard
// failures (5xx, transport death, blown deadline); a successful call
// slower than SlowCall counts as bad anyway. Outcomes arriving while
// the breaker is open (stragglers from before the trip) are dropped.
func (b *breaker) record(now time.Time, dur time.Duration, failed bool) {
	if b == nil {
		return
	}
	bad := failed || (b.cfg.SlowCall > 0 && dur >= b.cfg.SlowCall)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateOpen:
		return
	case stateHalfOpen:
		// Any outcome in half-open settles the probe: one good call
		// closes the breaker, one bad call re-opens it.
		b.probing = false
		if bad {
			b.trip(now)
		} else {
			b.state = stateClosed
			b.lastChange = now
			b.buckets = [breakerBuckets]brkBucket{}
		}
		return
	}
	bk := b.bucketAt(now)
	if bad {
		bk.fail++
	} else {
		bk.ok++
	}
	ok, fail := b.windowTotals(now)
	if total := ok + fail; total >= b.cfg.MinSamples &&
		float64(fail)/float64(total) >= breakerFailureRate {
		b.trip(now)
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip(now time.Time) {
	b.state = stateOpen
	b.openedAt = now
	b.lastChange = now
	b.probing = false
	b.ejections++
}

// viable is the non-mutating readiness check: true when the shard is
// routable now or would admit a probe (open past its cool-off). Unlike
// allow it never transitions state and never claims the probe slot, so
// /readyz can ask freely.
func (b *breaker) viable(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == stateOpen {
		return now.Sub(b.openedAt) >= b.cfg.OpenFor
	}
	return true
}

// BreakerStatus is the observability snapshot of one shard's breaker in
// GET /v1/stats.
type BreakerStatus struct {
	State      string `json:"state"`
	Ejections  uint64 `json:"ejections"`
	WindowOK   int    `json:"window_ok"`
	WindowFail int    `json:"window_fail"`
	// SinceMS is how long the breaker has been in its current state.
	SinceMS int64 `json:"since_ms"`
}

func (b *breaker) status(now time.Time) *BreakerStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ok, fail := b.windowTotals(now)
	st := &BreakerStatus{
		State:      b.state.String(),
		Ejections:  b.ejections,
		WindowOK:   ok,
		WindowFail: fail,
	}
	if !b.lastChange.IsZero() {
		st.SinceMS = now.Sub(b.lastChange).Milliseconds()
	}
	return st
}
