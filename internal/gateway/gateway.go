// Package gateway is the routing front end of the sharded intake tier:
// it partitions the reservation stream across N independent horizon
// shards (each one a primary + warm standby pair replicated by
// internal/replica) while exposing the same intake surface as a single
// server —
//
//	POST /v1/reservations    place on a shard per the Placement policy
//	POST /v1/advance         broadcast; per-shard epoch results aggregated
//	GET  /v1/plan            shard plans merged into one global schedule,
//	                         as bytes, once per change
//	GET  /v1/stats           per-shard routing + breaker + polled counters
//	GET  /healthz            gateway liveness
//	GET  /readyz             tier readiness (≥1 shard routable)
//
// Placement is pluggable (round-robin, least-loaded, locality, hash; see
// placement.go), and failure handling is automatic: a request hitting a
// fenced or unreachable primary promotes the shard's standby through the
// ordinary HTTP promote path and retries (failover.go), while a shard
// that keeps failing — or keeps answering too slowly, the gray failure a
// dead-or-alive health check cannot see — is ejected from placement by a
// per-shard circuit breaker (breaker.go) until a half-open probe clears
// it. When every shard is ejected the gateway sheds with 503 +
// Retry-After instead of queueing doomed work. The mux sits behind
// internal/httpkit's body cap, Retry-After decoration and panic recovery,
// the same layers internal/server mounts.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// ShardConfig names one shard: the serving primary and, optionally, the
// warm standby the gateway may promote when the primary fails.
type ShardConfig struct {
	ID      string
	Primary string
	Standby string
}

// CheckURLs reports whether the primary, and the standby when there is one,
// are absolute http or https URLs with a host: the bases every forward
// appends a path to. New refuses a shard whose URLs fail it.
func (sc ShardConfig) CheckURLs() error {
	if err := checkBaseURL(sc.Primary); err != nil {
		return fmt.Errorf("primary %w", err)
	}
	if sc.Standby == "" {
		return nil
	}
	if err := checkBaseURL(sc.Standby); err != nil {
		return fmt.Errorf("standby %w", err)
	}
	return nil
}

func checkBaseURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("URL: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" || u.Opaque != "" ||
		u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return fmt.Errorf("URL %q: want http://host[:port] or https://host[:port], optionally with a path", s)
	}
	return nil
}

// Config assembles a Gateway.
type Config struct {
	// Shards lists the partitions (at least one). Empty IDs default to
	// "s<index>".
	Shards []ShardConfig
	// Policy picks the shard per reservation (default RoundRobin()). The
	// instance must be exclusive to this gateway.
	Policy Placement
	// Topo enables region-aware placement: users are mapped onto
	// len(Shards) contiguous regions of the metro ring
	// (topology.UserRegions) and the region reaches the policy via
	// RouteInfo.Region. Optional; without it Locality degrades to the
	// video hash.
	Topo *topology.Topology
	// PollInterval is the period of the background /v1/stats poll that
	// feeds the polled View fields (0 disables the background poller;
	// GET /v1/stats still refreshes on demand).
	PollInterval time.Duration
	// Retry tunes the forwarding client shared by every upstream call.
	Retry retryhttp.Options
	// AutoAdvance makes the gateway close a shard's epoch in the
	// background whenever that shard's intake ack reports its trigger
	// fired. With N shards no client can know per-shard trigger state, so
	// epoch management moves into the tier itself.
	AutoAdvance bool
	// AdvanceLag holds each auto-advance target this far behind the
	// shard's newest acked arrival instant. It is the guard against
	// cross-client arrival skew: a straggler up to AdvanceLag behind the
	// fastest client never lands inside the frozen window.
	AdvanceLag simtime.Duration
	// Breaker tunes the per-shard circuit breakers that eject failing
	// or gray-slow shards from placement (see BreakerConfig). The zero
	// value enables breakers with defaults; set Disabled to opt out.
	Breaker BreakerConfig
	// ShardTimeout bounds each forwarded intake call, failover retries
	// included (0 = only the client's own deadline applies). It is the
	// deadline the gateway propagates to the shard: one slow shard can
	// then never pin an intake worker past this budget, and the blown
	// deadline feeds the shard's breaker as a failure.
	ShardTimeout time.Duration
}

// shardStats is one polled /v1/stats reply, or the poll's failure.
type shardStats struct {
	api.StatsResponse
	err string
}

// shard is the gateway's live state for one partition.
type shard struct {
	id string

	mu      sync.Mutex // guards primary/standby and the failover dance
	primary string
	standby string

	outstanding atomic.Int64
	routed      atomic.Uint64
	failovers   atomic.Uint64
	polled      atomic.Pointer[shardStats]
	plan        atomic.Pointer[schedule.Encoding] // the schedule in the last /v1/plan reply (merge.go)
	brk         *breaker                          // nil when breakers are disabled

	// Auto-advance state: maxAt tracks the newest acked arrival instant,
	// lastAdvance the last advance target (so targets never regress), and
	// advancing coalesces concurrent triggers.
	advMu        sync.Mutex
	advancing    bool
	maxAt        atomic.Int64
	lastAdvance  atomic.Int64
	advances     atomic.Uint64
	advanceNanos atomic.Int64
}

func (sh *shard) current() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.primary
}

func (sh *shard) view(i int) View {
	v := View{Index: i, ID: sh.id, Outstanding: sh.outstanding.Load(), Routed: sh.routed.Load()}
	if ps := sh.polled.Load(); ps != nil && ps.err == "" {
		v.HasStats = true
		v.Pending, v.InFlight, v.Shed, v.Epoch = ps.Horizon.Pending, ps.Overload.InFlight, ps.Overload.Shed, ps.Shard.Epoch
	}
	return v
}

// Gateway fronts the shards. It is an http.Handler safe for concurrent
// use; Close it after the HTTP server has drained.
type Gateway struct {
	shards       []*shard
	policy       Placement
	retry        retryhttp.Options
	autoAdvance  bool
	advanceLag   simtime.Duration
	shardTimeout time.Duration
	regions      []int // user -> region, nil without Config.Topo

	// sheds counts reservations the gateway itself refused because every
	// shard's breaker was open (distinct from shard-side 429 sheds).
	sheds atomic.Uint64

	// The plan path's kept merge and its work counters (merge.go).
	merged                              atomic.Pointer[mergedPlan]
	planReads, planReplaced, planMerges atomic.Uint64

	placeMu sync.Mutex // serializes Place with the outstanding bump

	handler http.Handler

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a gateway and, when Config.PollInterval is set, starts its
// background stats poller.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("gateway: no shards configured")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = RoundRobin()
	}
	g := &Gateway{
		policy:       policy,
		retry:        cfg.Retry,
		autoAdvance:  cfg.AutoAdvance,
		advanceLag:   cfg.AdvanceLag,
		shardTimeout: cfg.ShardTimeout,
		stop:         make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		id := sc.ID
		if id == "" {
			id = fmt.Sprintf("s%d", i)
		}
		if seen[id] {
			return nil, fmt.Errorf("gateway: duplicate shard id %q", id)
		}
		seen[id] = true
		if err := sc.CheckURLs(); err != nil {
			return nil, fmt.Errorf("gateway: shard %q: %w", id, err)
		}
		sh := &shard{
			id:      id,
			primary: strings.TrimRight(sc.Primary, "/"),
			standby: strings.TrimRight(sc.Standby, "/"),
			brk:     newBreaker(cfg.Breaker),
		}
		sh.lastAdvance.Store(-1)
		g.shards = append(g.shards, sh)
	}
	if cfg.Topo != nil {
		g.regions = topology.UserRegions(cfg.Topo, len(g.shards))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/plan", g.handlePlan)
	mux.HandleFunc("POST /v1/reservations", g.handleReservation)
	mux.HandleFunc("POST /v1/advance", g.handleAdvance)
	// No request timeout or limiter here: ShardTimeout/X-Request-Budget-Ms
	// and the per-shard breakers already are this tier's deadline and shed.
	g.handler = httpkit.RecoverPanics(httpkit.RetryAfter503(
		httpkit.LimitBody(mux, api.DefaultMaxRequestBytes)))
	if cfg.PollInterval > 0 {
		g.wg.Add(1)
		go g.pollLoop(cfg.PollInterval)
	}
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.handler.ServeHTTP(w, r) }

// Policy returns the active placement policy's name.
func (g *Gateway) Policy() string { return g.policy.Name() }

// Close stops the background poller and waits for in-flight
// auto-advances to finish. Call it after the HTTP server has drained.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

func (g *Gateway) closed() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

// place runs the policy and bumps the chosen shard's counters in one
// critical section, so two concurrent placements can never both observe
// the shard as idle. Shards with an open breaker are hidden from the
// policy (degraded routing); an open breaker past its cool-off admits
// this placement as its half-open probe, and probe slots the policy did
// not use are released. Returns nil when every shard is ejected — the
// caller must shed.
func (g *Gateway) place(info RouteInfo) *shard {
	now := time.Now()
	g.placeMu.Lock()
	defer g.placeMu.Unlock()
	views := make([]View, 0, len(g.shards))
	eligible := make([]*shard, 0, len(g.shards))
	for i, sh := range g.shards {
		if !sh.brk.allow(now) {
			continue
		}
		views = append(views, sh.view(i))
		eligible = append(eligible, sh)
	}
	if len(eligible) == 0 {
		return nil
	}
	idx := g.policy.Place(info, views)
	if idx < 0 || idx >= len(eligible) {
		idx = 0
	}
	sh := eligible[idx]
	for _, other := range eligible {
		if other != sh {
			other.brk.release()
		}
	}
	sh.outstanding.Add(1)
	sh.routed.Add(1)
	return sh
}

// ReservationResponse is the gateway's POST /v1/reservations reply: the
// shard's ack plus which shard served it.
type ReservationResponse struct {
	api.ReservationResponse
	Shard string `json:"shard"`
}

func (g *Gateway) handleReservation(w http.ResponseWriter, r *http.Request) {
	var req api.ReservationRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	// The shards' own screening, so a refusal moves neither a shard nor maxAt.
	_, at, err := req.Screen()
	if err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	info := RouteInfo{User: req.User, Video: req.Video, Start: req.Start, Region: -1}
	if int(req.User) < len(g.regions) {
		info.Region = g.regions[req.User]
	}
	sh := g.place(info)
	if sh == nil {
		// Degraded mode bottomed out: every shard's breaker is open.
		// Shed like an overloaded shard would, naming when to come back.
		g.sheds.Add(1)
		httpkit.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("all shards ejected by circuit breakers; retry shortly"))
		return
	}
	defer sh.outstanding.Add(-1)
	ctx, cancel := g.shardContext(r)
	defer cancel()
	var ack api.ReservationResponse
	t0 := time.Now()
	err = g.forward(ctx, sh, func(base string) error {
		return retryhttp.PostJSON(ctx, g.retry, base+"/v1/reservations", req, &ack)
	})
	recordOutcome(sh, time.Since(t0), err)
	if err != nil {
		writeUpstreamErr(w, sh, err)
		return
	}
	storeMax(&sh.maxAt, int64(at))
	if ack.EpochDue {
		g.maybeAutoAdvance(sh)
	}
	httpkit.WriteJSON(w, http.StatusAccepted, ReservationResponse{ReservationResponse: ack, Shard: sh.id})
}

// shardContext derives the per-forward deadline: the configured
// ShardTimeout, tightened further by an X-Request-Budget-Ms header when
// the client names its own remaining budget. The request context stays
// the parent, so client disconnects still cancel the forward.
func (g *Gateway) shardContext(r *http.Request) (context.Context, context.CancelFunc) {
	budget := g.shardTimeout
	if h := r.Header.Get("X-Request-Budget-Ms"); h != "" {
		// Bounded in milliseconds first: a Duration that overflowed could
		// come out negative and switch the deadline off.
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
			if d := time.Duration(ms) * time.Millisecond; budget == 0 || d < budget {
				budget = d
			}
		}
	}
	if budget <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), budget)
}

// recordOutcome feeds one forwarded call into the shard's breaker.
// Protocol answers below 500 — a shard-side 429 shed, a late-arrival
// 409 — are the shard working as designed and count as successes; the
// 5xx family, transport death, and a blown deadline count as failures.
// A cancelled client says nothing about the shard and is not recorded.
func recordOutcome(sh *shard, dur time.Duration, err error) {
	if sh.brk == nil {
		return
	}
	now := time.Now()
	if err == nil {
		sh.brk.record(now, dur, false)
		return
	}
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		sh.brk.record(now, dur, se.Code >= 500)
		return
	}
	if errors.Is(err, context.Canceled) {
		return
	}
	sh.brk.record(now, dur, true)
}

// maybeAutoAdvance closes sh's epoch in the background. Concurrent
// triggers coalesce: while one advance is in flight the next EpochDue
// ack re-arms it.
func (g *Gateway) maybeAutoAdvance(sh *shard) {
	if !g.autoAdvance || g.closed() {
		return
	}
	sh.advMu.Lock()
	if sh.advancing {
		sh.advMu.Unlock()
		return
	}
	sh.advancing = true
	sh.advMu.Unlock()
	// The advance occupies the shard like any forwarded call, so live
	// policies (least-loaded) steer new reservations away from it.
	sh.outstanding.Add(1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer sh.outstanding.Add(-1)
		defer func() {
			sh.advMu.Lock()
			sh.advancing = false
			sh.advMu.Unlock()
		}()
		g.advanceShard(context.Background(), sh)
	}()
}

func (g *Gateway) advanceShard(ctx context.Context, sh *shard) {
	to := simtime.Time(sh.maxAt.Load()).Add(-g.advanceLag)
	if to < 0 {
		to = 0
	}
	if int64(to) <= sh.lastAdvance.Load() {
		return // nothing new to commit
	}
	// A failure is not fatal: the next EpochDue ack retries.
	if _, dur, err := g.advanceOne(ctx, sh, to); err == nil {
		sh.advances.Add(1)
		sh.advanceNanos.Add(dur.Nanoseconds())
	}
}

// advanceOne closes sh's epoch up to to, for the auto-advancer and the
// broadcast alike, and returns the round-trip time. Epoch solves are
// legitimately slow, so an advance feeds the breaker only its error
// signal, never its duration.
func (g *Gateway) advanceOne(ctx context.Context, sh *shard, to simtime.Time) (api.EpochResult, time.Duration, error) {
	t0 := time.Now()
	var res api.EpochResult
	err := g.forward(ctx, sh, func(base string) error {
		return retryhttp.PostJSON(ctx, g.retry, base+"/v1/advance", api.AdvanceRequest{To: to}, &res)
	})
	recordOutcome(sh, 0, err)
	if err == nil {
		storeMax(&sh.lastAdvance, int64(to))
	}
	return res, time.Since(t0), err
}

// ShardEpoch is one shard's slice of a broadcast advance.
type ShardEpoch struct {
	Shard     string          `json:"shard"`
	Result    api.EpochResult `json:"result"`
	ElapsedMS int64           `json:"elapsed_ms"`
}

// ShardFailure is one shard's slot in a partially failed broadcast:
// which shard, what went wrong, and the HTTP status when the shard
// answered with one (0 for transport-level deaths).
type ShardFailure struct {
	Shard  string `json:"shard"`
	Error  string `json:"error"`
	Status int    `json:"status,omitempty"`
}

// AdvanceResponse aggregates a broadcast epoch close. The top-level
// fields mirror api.EpochResult's JSON, so single-server clients
// (internal/loadgen, behind cmd/vspload) decode it unchanged: counters,
// the Resolution work counts included, are summed, Horizon is the slowest
// (minimum) shard commit horizon, Epoch the largest shard epoch index.
// LagMS is the epoch-advance lag — the spread between the fastest and
// slowest shard's advance round-trip.
//
// A broadcast is not all-or-nothing: shards that advanced report their
// results in Shards, shards that did not land in Failed, and only a
// broadcast with zero successes is an error. A partitioned shard
// therefore cannot veto the rest of the tier's epoch close; it catches
// up on the next advance once reachable (targets are absolute instants,
// so a missed epoch is re-covered, never skipped).
type AdvanceResponse struct {
	Epoch             int            `json:"epoch"`
	Horizon           simtime.Time   `json:"horizon"`
	Admitted          int            `json:"admitted"`
	Replanned         int            `json:"replanned"`
	FrozenDeliveries  int            `json:"frozen_deliveries"`
	FrozenResidencies int            `json:"frozen_residencies"`
	Overflows         int            `json:"overflows"`
	Cost              units.Money    `json:"cost"`
	Resolution        api.Work       `json:"resolution"`
	Shards            []ShardEpoch   `json:"shards"`
	Failed            []ShardFailure `json:"failed,omitempty"`
	LagMS             int64          `json:"lag_ms"`
}

func (g *Gateway) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req api.AdvanceRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	res, sh, err := g.advanceAll(r.Context(), req.To)
	if err != nil {
		writeUpstreamErr(w, sh, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, res)
}

// advanceAll broadcasts one advance to every shard concurrently and
// aggregates whatever succeeded; shards that failed are reported in the
// response's Failed list instead of vetoing the broadcast. Only when
// every shard fails does it return an error (with the first offending
// shard, for the error reply).
func (g *Gateway) advanceAll(ctx context.Context, to simtime.Time) (AdvanceResponse, *shard, error) {
	type outcome struct {
		res api.EpochResult
		dur time.Duration
		err error
	}
	outs := make([]outcome, len(g.shards))
	var wg sync.WaitGroup
	for i, sh := range g.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sh.outstanding.Add(1)
			defer sh.outstanding.Add(-1)
			outs[i].res, outs[i].dur, outs[i].err = g.advanceOne(ctx, sh, to)
		}(i, sh)
	}
	wg.Wait()
	var agg AdvanceResponse
	minDur, maxDur := time.Duration(-1), time.Duration(0)
	first := true
	for i, o := range outs {
		sh := g.shards[i]
		if o.err != nil {
			f := ShardFailure{Shard: sh.id, Error: o.err.Error()}
			var se *retryhttp.StatusError
			if errors.As(o.err, &se) {
				f.Status = se.Code
			}
			agg.Failed = append(agg.Failed, f)
			continue
		}
		if first || o.res.Horizon < agg.Horizon {
			agg.Horizon = o.res.Horizon
		}
		first = false
		if o.res.Epoch > agg.Epoch {
			agg.Epoch = o.res.Epoch
		}
		agg.Admitted += o.res.Admitted
		agg.Replanned += o.res.Replanned
		agg.FrozenDeliveries += o.res.FrozenDeliveries
		agg.FrozenResidencies += o.res.FrozenResidencies
		agg.Overflows += o.res.Overflows
		agg.Cost += o.res.Cost
		agg.Resolution.Add(o.res.Resolution)
		agg.Shards = append(agg.Shards, ShardEpoch{Shard: sh.id, Result: o.res, ElapsedMS: o.dur.Milliseconds()})
		if minDur < 0 || o.dur < minDur {
			minDur = o.dur
		}
		if o.dur > maxDur {
			maxDur = o.dur
		}
	}
	if minDur >= 0 {
		agg.LagMS = (maxDur - minDur).Milliseconds()
	}
	if len(agg.Shards) == 0 {
		for i, o := range outs {
			if o.err != nil {
				return agg, g.shards[i], o.err
			}
		}
	}
	return agg, nil, nil
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": len(g.shards)})
}

// ReadyResponse is the GET /readyz reply: the tier is ready while at
// least one shard is routable (breaker closed, half-open, or open but
// past its cool-off and so about to be probed).
type ReadyResponse struct {
	Ready         bool `json:"ready"`
	HealthyShards int  `json:"healthy_shards"`
	Shards        int  `json:"shards"`
}

// Ready reports tier readiness from the breakers alone — a pure
// read, safe for load-balancer probes at any rate.
func (g *Gateway) Ready() ReadyResponse {
	now := time.Now()
	resp := ReadyResponse{Shards: len(g.shards)}
	for _, sh := range g.shards {
		if sh.brk.viable(now) {
			resp.HealthyShards++
		}
	}
	resp.Ready = resp.HealthyShards > 0
	return resp
}

func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := g.Ready()
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	httpkit.WriteJSON(w, code, resp)
}

// pollLoop refreshes the polled stats snapshots on the configured
// interval until the gateway is closed.
func (g *Gateway) pollLoop(every time.Duration) {
	defer g.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	timeout := every
	if timeout < time.Second {
		timeout = time.Second
	}
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			g.PollNow(ctx)
			cancel()
		}
	}
}

// PollNow refreshes every shard's stats snapshot from its /v1/stats —
// exactly one request per shard, thanks to the shard block the servers
// expose. Polls never trigger failover: a poll failure is recorded, and
// only real intake traffic may promote a standby.
func (g *Gateway) PollNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range g.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			ps := new(shardStats)
			if err := retryhttp.GetJSON(ctx, g.retry, sh.current()+"/v1/stats", &ps.StatsResponse); err != nil {
				ps = &shardStats{err: err.Error()}
			}
			sh.polled.Store(ps)
		}(sh)
	}
	wg.Wait()
}

// ShardStatus is one shard's row in the gateway's GET /v1/stats reply.
type ShardStatus struct {
	ID          string `json:"id"`
	Primary     string `json:"primary"`
	Standby     string `json:"standby,omitempty"`
	Routed      uint64 `json:"routed"`
	Outstanding int64  `json:"outstanding"`
	Failovers   uint64 `json:"failovers"`
	Advances    uint64 `json:"advances"`
	AdvanceMS   int64  `json:"advance_ms"`
	// Breaker is the shard's circuit-breaker snapshot (absent when
	// breakers are disabled).
	Breaker *BreakerStatus `json:"breaker,omitempty"`
	// Polled shard-side counters (zero until a poll succeeds).
	Pending        int    `json:"pending"`
	InFlight       int    `json:"in_flight"`
	Shed           uint64 `json:"shed"`
	Epoch          int    `json:"epoch"`
	Role           string `json:"role,omitempty"`
	ReplicationLag uint64 `json:"replication_lag"`
	StatsError     string `json:"stats_error,omitempty"`
}

// StatsResponse is the gateway's GET /v1/stats reply.
type StatsResponse struct {
	Policy    string        `json:"policy"`
	Shards    []ShardStatus `json:"shards"`
	Routed    uint64        `json:"routed_total"`
	Shed      uint64        `json:"shed_total"`
	Failovers uint64        `json:"failovers_total"`
	// GatewayShed counts reservations the gateway refused itself
	// because every shard's breaker was open (shard-side 429 sheds are
	// in Shed).
	GatewayShed uint64 `json:"gateway_shed_total"`
	// HealthyShards is the breaker view of the tier, as in /readyz.
	HealthyShards int `json:"healthy_shards"`
	// Resolution sums the shards' polled horizon.resolution: the tier's
	// overflow-resolution work and, as reused/(reused+evaluated), its
	// reuse hit rate.
	Resolution api.Work `json:"resolution"`
	// Plan is the plan path's work: merges over reads is the share of GET
	// /v1/plan that found some shard's schedule replaced.
	Plan PlanStats `json:"plan"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	g.PollNow(r.Context())
	httpkit.WriteJSON(w, http.StatusOK, g.Stats())
}

// Stats assembles the gateway's view of the tier from the counters and
// the most recent poll (call PollNow first for fresh shard-side fields).
func (g *Gateway) Stats() StatsResponse {
	now := time.Now()
	resp := StatsResponse{Policy: g.policy.Name(), GatewayShed: g.sheds.Load(), Plan: PlanStats{
		Reads: g.planReads.Load(), ShardDecodes: g.planReplaced.Load(), Merges: g.planMerges.Load(),
	}}
	for _, sh := range g.shards {
		sh.mu.Lock()
		row := ShardStatus{ID: sh.id, Primary: sh.primary, Standby: sh.standby}
		sh.mu.Unlock()
		row.Routed = sh.routed.Load()
		row.Outstanding = sh.outstanding.Load()
		row.Failovers = sh.failovers.Load()
		row.Advances = sh.advances.Load()
		row.AdvanceMS = time.Duration(sh.advanceNanos.Load()).Milliseconds()
		row.Breaker = sh.brk.status(now)
		if sh.brk.viable(now) {
			resp.HealthyShards++
		}
		if ps := sh.polled.Load(); ps != nil {
			row.Pending, row.InFlight, row.Shed = ps.Horizon.Pending, ps.Overload.InFlight, ps.Overload.Shed
			row.Epoch, row.Role, row.ReplicationLag = ps.Shard.Epoch, ps.Shard.Role, ps.Shard.ReplicationLag
			row.StatsError = ps.err
			resp.Resolution.Add(ps.Horizon.Resolution)
		}
		resp.Routed += row.Routed
		resp.Shed += row.Shed
		resp.Failovers += row.Failovers
		resp.Shards = append(resp.Shards, row)
	}
	return resp
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// writeUpstreamErr relays a shard failure: protocol answers keep their
// status and message (a late-arrival 409 must reach the client intact);
// transport-level failures become 502, which retrying clients treat as
// transient.
func writeUpstreamErr(w http.ResponseWriter, sh *shard, err error) {
	id := ""
	if sh != nil {
		id = sh.id
	}
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		httpkit.WriteJSON(w, se.Code, map[string]string{"error": se.Message, "shard": id})
		return
	}
	httpkit.WriteJSON(w, http.StatusBadGateway, map[string]string{
		"error": fmt.Sprintf("shard %s: %v", id, err),
		"shard": id,
	})
}
