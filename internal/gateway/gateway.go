// Package gateway is the routing front end of the sharded intake tier:
// it partitions the reservation stream across N independent horizon
// shards (each one a primary + warm standby pair replicated by
// internal/server) while exposing the same intake surface as a single
// server —
//
//	POST /v1/reservations    place on a shard per the Placement policy
//	POST /v1/advance         broadcast; per-shard epoch results aggregated
//	GET  /v1/plan            shard plans merged into one global schedule,
//	                         as bytes, once per change
//	GET  /v1/stats           per-shard routing + breaker counters, and
//	                         each shard's /v1/stats polled for the reply
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
	// Retry tunes the forwarding client shared by every upstream call.
	Retry retryhttp.Options
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

// shard is the gateway's live state for one partition.
type shard struct {
	id string

	mu      sync.Mutex // guards primary/standby and the failover dance
	primary string
	standby string

	outstanding atomic.Int64
	routed      atomic.Uint64
	failovers   atomic.Uint64
	plan        atomic.Pointer[schedule.Encoding] // the schedule in the last /v1/plan reply (merge.go)
	brk         *breaker                          // nil when breakers are disabled
}

func (sh *shard) current() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.primary
}

// Gateway fronts the shards. It is an http.Handler safe for concurrent
// use, and it keeps no goroutine running between requests.
type Gateway struct {
	shards       []*shard
	policy       Placement
	retry        retryhttp.Options
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
}

// New builds a gateway.
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
		shardTimeout: cfg.ShardTimeout,
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
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.handler.ServeHTTP(w, r) }

// Policy returns the active placement policy's name.
func (g *Gateway) Policy() string { return g.policy.Name() }

// Close releases nothing: the gateway holds no goroutine or file between
// requests. It is kept so a caller can close the gateway with what it serves.
func (g *Gateway) Close() {}

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
	for _, sh := range g.shards {
		if !sh.brk.allow(now) {
			continue
		}
		views = append(views, View{Outstanding: sh.outstanding.Load(), Routed: sh.routed.Load()})
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
	// The shards' own screening, so a refusal never reaches a shard.
	if _, _, err := req.Screen(); err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	info := RouteInfo{Video: req.Video, Region: -1}
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
	// A reservation is not idempotent: one the shard journaled but whose
	// reply was lost would be accepted again if re-sent. So it is sent at
	// most once unless the failure proves the shard did not act (see
	// retryhttp.PostJSONAtMostOnce; forward re-sends after a stale-leadership
	// 409 or a failed dial, on the promoted standby).
	err := g.forward(ctx, sh, func(base string) error {
		return retryhttp.PostJSONAtMostOnce(ctx, g.retry, base+"/v1/reservations", req, &ack)
	})
	recordOutcome(sh, time.Since(t0), err)
	if err != nil {
		note := ""
		if outcomeUnknown(err) {
			note = "outcome unknown, the reservation may or may not have been accepted"
		}
		writeUpstreamErr(w, sh, err, note)
		return
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

// advanceOne closes sh's epoch up to to for the broadcast and returns the
// round-trip time. Epoch solves are legitimately slow, so an advance feeds
// the breaker only its error signal, never its duration.
func (g *Gateway) advanceOne(ctx context.Context, sh *shard, to simtime.Time) (api.EpochResult, time.Duration, error) {
	t0 := time.Now()
	var res api.EpochResult
	err := g.forward(ctx, sh, func(base string) error {
		return retryhttp.PostJSON(ctx, g.retry, base+"/v1/advance", api.AdvanceRequest{To: to}, &res)
	})
	recordOutcome(sh, 0, err)
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
		writeUpstreamErr(w, sh, err, "")
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

// ShardStatus is one shard's row in the gateway's GET /v1/stats reply.
type ShardStatus struct {
	ID          string `json:"id"`
	Primary     string `json:"primary"`
	Standby     string `json:"standby,omitempty"`
	Routed      uint64 `json:"routed"`
	Outstanding int64  `json:"outstanding"`
	Failovers   uint64 `json:"failovers"`
	// Advances and AdvanceMS are polled, like the fields after Breaker:
	// the epochs the shard committed, explicit and triggered, and their
	// time.
	Advances  uint64 `json:"advances"`
	AdvanceMS int64  `json:"advance_ms"`
	// Breaker is the shard's circuit-breaker snapshot (absent when
	// breakers are disabled).
	Breaker *BreakerStatus `json:"breaker,omitempty"`
	// Polled shard-side counters (zero when the poll failed, and in Stats).
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

// handleStats answers with the gateway's counters and one /v1/stats poll of
// every shard, made for this reply and kept by nothing. A poll never
// triggers failover: only intake traffic may promote a standby.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	polls := make([]api.StatsResponse, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, sh := range g.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = retryhttp.GetJSON(r.Context(), g.retry, sh.current()+"/v1/stats", &polls[i])
		}()
	}
	wg.Wait()
	resp := g.Stats()
	for i, ps := range polls {
		row := &resp.Shards[i]
		if errs[i] != nil {
			row.StatsError = errs[i].Error()
			continue
		}
		row.Pending, row.InFlight, row.Shed = ps.Horizon.Pending, ps.Overload.InFlight, ps.Overload.Shed
		row.Epoch, row.Role, row.ReplicationLag = ps.Shard.Epoch, ps.Shard.Role, ps.Shard.ReplicationLag
		row.Advances, row.AdvanceMS = ps.Horizon.Advances, ps.Horizon.AdvanceMS
		resp.Shed += row.Shed
		resp.Resolution.Add(ps.Horizon.Resolution)
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}

// Stats assembles the gateway's own view of the tier: its counters and
// breakers. The polled fields are zero; GET /v1/stats fills them.
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
		row.Breaker = sh.brk.status(now)
		if sh.brk.viable(now) {
			resp.HealthyShards++
		}
		resp.Routed += row.Routed
		resp.Failovers += row.Failovers
		resp.Shards = append(resp.Shards, row)
	}
	return resp
}

// outcomeUnknown reports whether a reservation's failed forward leaves open
// whether the shard accepted it: the connection failed, or the deadline ran
// out, after the request could have been written, or the shard answered a
// 5xx. A 4xx is the shard's answer, and a failed dial sent nothing.
func outcomeUnknown(err error) bool {
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return errors.Is(err, retryhttp.ErrOutcomeUnknown)
}

// writeUpstreamErr relays a shard failure: protocol answers keep their
// status and message (a late-arrival 409 must reach the client intact);
// transport-level failures become 502, which retrying clients treat as
// transient. A non-empty note says what the failure leaves open; the message
// then leads with it and carries the whole error, under the same status.
func writeUpstreamErr(w http.ResponseWriter, sh *shard, err error, note string) {
	id := ""
	if sh != nil {
		id = sh.id
	}
	code, msg := http.StatusBadGateway, fmt.Sprintf("shard %s: %v", id, err)
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		code, msg = se.Code, se.Message
	}
	if note != "" {
		msg = fmt.Sprintf("shard %s: %s: %v", id, note, err)
	}
	httpkit.WriteJSON(w, code, map[string]string{"error": msg, "shard": id})
}
