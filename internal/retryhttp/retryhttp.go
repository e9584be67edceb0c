// Package retryhttp is a small retrying HTTP client helper for the
// service's internal control-plane calls: WAL shipping, fencing, and the
// remote-intake drivers. It retries transient failures — connection
// errors, 429, and the retryable 5xx family — with jittered exponential
// backoff, honors Retry-After when the server names its own back-off,
// and respects context cancellation at every wait.
//
// It deliberately does not retry on other statuses: a 400 or 409 is a
// protocol answer (a stale leadership epoch, a late arrival), not a
// transient fault, and the caller must see it.
//
// PostJSONAtMostOnce is PostJSON for a request the server must not apply
// twice. It re-sends only after a failure that proves the server did not
// act — the dial failed, or a 429 shed the request — and reports any other
// transport failure as ErrOutcomeUnknown at once, and a 5xx as the status.
//
// GetJSON and PostJSON read a 2xx reply whole into a pooled buffer and
// json.Unmarshal it from there, so a reply obeys the rule
// httpkit.DecodeBody has for requests: the body is exactly one JSON value,
// and anything but whitespace after it is a decode error, not a silently
// dropped second value. GetBody hands the same whole body to its caller.
package retryhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Defaults for the zero Options value.
const (
	DefaultMaxAttempts = 5
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// Options tunes the retry loop. The zero value is usable.
type Options struct {
	// Client issues the requests (default http.DefaultClient).
	Client *http.Client
	// MaxAttempts bounds the total number of tries (default
	// DefaultMaxAttempts; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the first back-off (default DefaultBaseDelay); each
	// retry doubles it, jittered to a uniform value in [d/2, d).
	BaseDelay time.Duration
	// MaxDelay caps the back-off, including server-supplied Retry-After
	// values (default DefaultMaxDelay).
	MaxDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = DefaultBaseDelay
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = DefaultMaxDelay
	}
	return o
}

// retryableStatus reports whether a response status signals a transient
// condition worth retrying: explicit back-pressure (429) or the gateway /
// availability 5xx family. 500 itself is excluded — the repo's handlers
// use it for deterministic internal failures that a retry only repeats.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do issues the request produced by newReq, retrying transient failures.
// newReq is called once per attempt so each try gets a fresh body; a
// request it did not build on ctx is copied onto it. The
// returned response is the terminal one — a success, a non-retryable
// status, or the last retryable status once attempts are exhausted — and
// the caller owns its body. A non-nil error means no response was
// obtained at all (every attempt failed at the transport layer, or the
// context expired).
func Do(ctx context.Context, opts Options, newReq func() (*http.Request, error)) (*http.Response, error) {
	return do(ctx, opts, newReq, false)
}

// ErrOutcomeUnknown marks a failure of an at-most-once request after which
// the server may or may not have acted on it: the connection failed once the
// request could have been written.
var ErrOutcomeUnknown = errors.New("outcome unknown")

// do is Do; with once set it re-sends only what the server provably did not
// act on. A dial failure sent nothing, and a 429 is the shed of an admission
// limiter that runs before any handler; every other retryable status is
// returned at once, and every other transport failure is ErrOutcomeUnknown.
func do(ctx context.Context, opts Options, newReq func() (*http.Request, error), once bool) (*http.Response, error) {
	opts = opts.withDefaults()
	delay := opts.BaseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		// An already-expired context must short-circuit before the attempt
		// is issued, not after a doomed dial plus a full backoff sleep.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		req, err := newReq()
		if err != nil {
			return nil, fmt.Errorf("retryhttp: build request: %w", err)
		}
		if req.Context() != ctx {
			req = req.WithContext(ctx)
		}
		resp, err := opts.Client.Do(req)
		switch {
		case err != nil:
			if once && !dialFailed(err) {
				return nil, fmt.Errorf("retryhttp: %w: %w", ErrOutcomeUnknown, err)
			}
			// A failure caused by the context is terminal, not transient:
			// retrying a cancelled call only burns attempts and backoff.
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = err
		case !retryableStatus(resp.StatusCode) || attempt == opts.MaxAttempts,
			once && resp.StatusCode != http.StatusTooManyRequests:
			return resp, nil
		default:
			// Retryable status: honor Retry-After if present, then retry.
			wait := retryAfter(resp, delay, opts.MaxDelay)
			drain(resp)
			if err := sleep(ctx, wait); err != nil {
				return nil, err
			}
			delay = nextDelay(delay, opts.MaxDelay)
			continue
		}
		if attempt == opts.MaxAttempts {
			return nil, fmt.Errorf("retryhttp: %d attempts failed: %w", attempt, lastErr)
		}
		if err := sleep(ctx, jitter(delay)); err != nil {
			return nil, err
		}
		delay = nextDelay(delay, opts.MaxDelay)
	}
}

// dialFailed reports whether a transport failure happened while connecting,
// before any byte of the request was written.
func dialFailed(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// jitter spreads a delay uniformly over [d/2, d) so synchronized clients
// desynchronize instead of retrying in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

func nextDelay(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		return max
	}
	return d
}

// retryAfter extracts a Retry-After delay (delta-seconds form; the
// HTTP-date form is rare and falls back to the computed back-off),
// capped at max.
func retryAfter(resp *http.Response, fallback, max time.Duration) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return jitter(fallback)
	}
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 0 {
		return jitter(fallback)
	}
	// Capped in seconds, before the conversion can overflow.
	if time.Duration(secs) > max/time.Second {
		return max
	}
	return time.Duration(secs) * time.Second
}

func sleep(ctx context.Context, d time.Duration) error {
	// Check first: select picks uniformly among ready cases, so a
	// cancelled context could otherwise lose the race against a timer
	// that has already fired (or a zero-length sleep).
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// StatusError reports a terminal non-2xx reply from a JSON endpoint.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("retryhttp: status %d: %s", e.Code, e.Message)
}

// replies holds the buffers 2xx replies are read into.
var replies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply is the largest buffer handed back to the pool, and the
// most a reply's Content-Length may reserve before a byte of it has
// arrived. The replies that matter here are whole plans: the benchmark's
// largest server.plan_bytes is intake_light's final 1.5 MB, so 4 MiB keeps
// every plan the verified traffic produces in reused memory with room to
// double, while one far larger reply is left to the collector instead of
// pinning its size until the pool is next emptied.
const maxPooledReply = 4 << 20

// GetJSON GETs url and decodes a 2xx JSON body into out (which may be
// nil to discard). Non-2xx replies become a *StatusError carrying the
// body's "error" field when present.
func GetJSON(ctx context.Context, opts Options, url string, out any) error {
	return doJSON(ctx, opts, http.MethodGet, url, nil, false, out)
}

// GetBody GETs url and hands a 2xx reply's whole body to decode, for a
// caller that takes the reply apart itself. The bytes belong to a pooled
// buffer: decode must copy whatever it keeps past its return. Its error is
// reported as a decode error naming the call; non-2xx replies are as for
// GetJSON.
func GetBody(ctx context.Context, opts Options, url string, decode func(body []byte) error) error {
	return call(ctx, opts, http.MethodGet, url, nil, false, decode)
}

// PostJSON POSTs in (JSON-encoded; nil for an empty body) to url and
// decodes a 2xx JSON reply into out.
func PostJSON(ctx context.Context, opts Options, url string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("retryhttp: encode body: %w", err)
		}
	}
	return doJSON(ctx, opts, http.MethodPost, url, body, false, out)
}

// PostJSONAtMostOnce is PostJSON for a request that must not be applied
// twice, such as a reservation: it is re-sent only when the dial failed or a
// 429 shed it. A transport failure after the dial is returned at once,
// wrapping ErrOutcomeUnknown, and so is a 5xx, as a *StatusError.
func PostJSONAtMostOnce(ctx context.Context, opts Options, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("retryhttp: encode body: %w", err)
	}
	return doJSON(ctx, opts, http.MethodPost, url, body, true, out)
}

func doJSON(ctx context.Context, opts Options, method, url string, body []byte, once bool, out any) error {
	if out == nil {
		return call(ctx, opts, method, url, body, once, nil)
	}
	return call(ctx, opts, method, url, body, once, func(reply []byte) error { return json.Unmarshal(reply, out) })
}

// call is the one exchange under the JSON helpers; once is do's. A nil
// decode discards the 2xx body unread.
func call(ctx context.Context, opts Options, method, url string, body []byte, once bool, decode func([]byte) error) error {
	resp, err := do(ctx, opts, func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	}, once)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if decode == nil {
		drain(resp)
		return nil
	}
	buf := replies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledReply {
			buf.Reset()
			replies.Put(buf)
		}
	}()
	// A reply that says how long it is gets its room at once instead of by
	// doubling; bytes.MinRead more lets ReadFrom meet EOF without growing.
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledReply)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("retryhttp: read %s %s reply: %w", method, url, err)
	}
	if err := decode(buf.Bytes()); err != nil {
		return fmt.Errorf("retryhttp: decode %s %s reply: %w", method, url, err)
	}
	return nil
}
