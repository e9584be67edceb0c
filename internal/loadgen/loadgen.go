// Package loadgen is the closed-loop load harness for the reservation
// intake tier. It replays a workload trace against the HTTP surface of a
// single vspserve node or a vspgateway shard tier: a fixed pool of
// workers submits reservations back-to-back (each worker issues its next
// request as soon as the previous ack returns — closed-loop, so offered
// concurrency is the knob, not an open arrival rate). Epochs are the
// service's own business: a shard closes its epoch when its trigger fires,
// and the harness never posts /v1/advance.
//
// The harness deliberately does NOT retry shed requests: a 429 is a
// measurement (the admission controller working), not a transient to
// paper over, so submits go through a plain http.Client rather than
// retryhttp. The result quantifies the run — submit latency percentiles,
// shed and late-arrival rates, per-shard routing — and marshals to JSON
// for the benchmark trajectory.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/stats"
	"github.com/vodsim/vsp/internal/workload"
)

// Config parameterizes a load run.
type Config struct {
	// Target is the base URL of the intake surface (vspserve or
	// vspgateway), e.g. "http://127.0.0.1:8080".
	Target string
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int
	// Timeout bounds each HTTP call (default 30s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Result is a load run's measurement, JSON-ready for the BENCH
// trajectory.
type Result struct {
	// Name labels the run when several measurements share one BENCH file
	// (e.g. "gray-failure, breakers off"). Set by the caller, not by Run.
	Name        string `json:"name,omitempty"`
	Target      string `json:"target"`
	Concurrency int    `json:"concurrency"`

	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	// Shed counts 429 replies — the admission controller rejecting load.
	Shed int `json:"shed"`
	// Late counts 409 replies — arrivals behind the commit horizon.
	Late int `json:"late"`
	// Errors counts transport failures and unexpected statuses.
	// ErrorsByCause partitions them: "timeout" (deadline blown),
	// "connection" (transport death), "5xx" (server/gateway failure
	// replies), "status_NNN" (other unexpected statuses). Sheds and lates
	// are protocol answers, counted in their own fields, not here.
	Errors        int            `json:"errors"`
	ErrorsByCause map[string]int `json:"errors_by_cause,omitempty"`
	ErrorSamples  []string       `json:"error_samples,omitempty"`
	ShedRate      float64        `json:"shed_rate"`
	// Availability is accepted/submitted — the fraction of offered load
	// that came back with a 202.
	Availability float64 `json:"availability"`

	ElapsedMS      int64   `json:"elapsed_ms"`
	AcceptedPerSec float64 `json:"accepted_per_sec"`

	// Submit summarizes per-request submit latency (p50/p95/p99/max).
	Submit stats.LatencySummary `json:"submit_latency"`

	// ShardRouted counts acks per shard label when the target is a
	// gateway (its acks carry a "shard" field); empty for a single
	// server.
	ShardRouted map[string]int `json:"shard_routed,omitempty"`
}

type worker struct {
	submitted, accepted, shed, late, errors int
	latencies                               []time.Duration
	errSamples                              []string
	shards                                  map[string]int
	causes                                  map[string]int
}

// causeOf buckets a transport-level submit failure. Timeouts (the
// request deadline blew, wherever it was spent) are separated from
// connection-level death so a chaos run can tell gray failure from hard
// partition in the report.
func causeOf(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "connection"
}

// causeOfStatus buckets an unexpected reply status: all 5xx fold into
// one cause (server or gateway failing), anything else keeps its code.
func causeOfStatus(code int) string {
	if code >= 500 {
		return "5xx"
	}
	return fmt.Sprintf("status_%d", code)
}

// Run replays the trace against cfg.Target and reports the measurement.
// The trace is consumed through the TraceReader iterator, so arbitrarily
// long traces replay in constant memory. Run returns early only on
// context cancellation or a trace read error; per-request failures are
// counted, not fatal.
func Run(ctx context.Context, cfg Config, trace workload.TraceReader) (*Result, error) {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}

	feed := make(chan workload.Request, cfg.Concurrency*2)
	var readErr error
	go func() {
		defer close(feed)
		for {
			r, err := trace.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = err
				return
			}
			select {
			case feed <- r:
			case <-ctx.Done():
				return
			}
		}
	}()

	workers := make([]worker, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.shards = make(map[string]int)
			w.causes = make(map[string]int)
			for req := range feed {
				submit(ctx, cfg, client, w, req)
				if ctx.Err() != nil {
					return
				}
			}
		}(&workers[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if readErr != nil {
		return nil, readErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		Target:        cfg.Target,
		Concurrency:   cfg.Concurrency,
		ElapsedMS:     elapsed.Milliseconds(),
		ShardRouted:   make(map[string]int),
		ErrorsByCause: make(map[string]int),
	}
	var lat []time.Duration
	for i := range workers {
		w := &workers[i]
		res.Submitted += w.submitted
		res.Accepted += w.accepted
		res.Shed += w.shed
		res.Late += w.late
		res.Errors += w.errors
		lat = append(lat, w.latencies...)
		for s, n := range w.shards {
			res.ShardRouted[s] += n
		}
		for c, n := range w.causes {
			res.ErrorsByCause[c] += n
		}
		for _, e := range w.errSamples {
			if len(res.ErrorSamples) < 5 {
				res.ErrorSamples = append(res.ErrorSamples, e)
			}
		}
	}
	sort.Strings(res.ErrorSamples)
	if len(res.ShardRouted) == 0 {
		res.ShardRouted = nil
	}
	if len(res.ErrorsByCause) == 0 {
		res.ErrorsByCause = nil
	}
	if res.Submitted > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Submitted)
		res.Availability = float64(res.Accepted) / float64(res.Submitted)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.AcceptedPerSec = float64(res.Accepted) / secs
	}
	res.Submit = stats.SummarizeLatency(lat)
	return res, nil
}

// submit posts one reservation and classifies the outcome. Arrival time
// is the request's start instant (the trace is chronological, so the
// service's reservation clock moves with the replay).
func submit(ctx context.Context, cfg Config, client *http.Client, w *worker, req workload.Request) {
	w.submitted++
	body, err := json.Marshal(req)
	if err != nil {
		w.errors++
		return
	}
	t0 := time.Now()
	resp, err := post(ctx, client, cfg.Target+"/v1/reservations", body)
	took := time.Since(t0)
	if err != nil {
		w.errors++
		w.causes[causeOf(err)]++
		w.sample(err.Error())
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	w.latencies = append(w.latencies, took)
	switch resp.StatusCode {
	case http.StatusAccepted:
		w.accepted++
		var a gateway.ReservationResponse // a server's ack is the same, without the shard
		if json.NewDecoder(resp.Body).Decode(&a) == nil && a.Shard != "" {
			w.shards[a.Shard]++
		}
	case http.StatusTooManyRequests:
		w.shed++
	case http.StatusConflict:
		w.late++
	default:
		w.errors++
		w.causes[causeOfStatus(resp.StatusCode)]++
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		w.sample(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b)))
	}
}

func (w *worker) sample(msg string) {
	if len(w.errSamples) < 5 {
		w.errSamples = append(w.errSamples, msg)
	}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}
