// Package server exposes the scheduler as a JSON-over-HTTP service: the
// form a Video-On-Reservation operator would actually deploy. A server is
// bound to one priced infrastructure (topology + catalog + rates); it
// schedules reservation batches on demand and runs the rolling-horizon
// reservation intake, durable and replicated when asked to be.
//
// Every route is behind the four layers harden (middleware.go) wraps the
// router in: panic recovery, Retry-After on 503s, admission control and the
// body cap. The request deadline (httpkit.Deadline, Options.RequestTimeout)
// is a fifth layer on the routes marked T and on no other: a route is timed
// iff its handler hands r.Context() to work that returns when the context
// expires. Anywhere else the deadline could stop nothing — the handler
// would run to its end and be delivered late, as it is without the layer —
// so those requests run on the connection's own context, uncopied.
//
//	   GET  /healthz                  liveness
//	   GET  /readyz                   200 once serviceable, else 503 + lag
//	   GET  /v1/topology              the service network (topology.Spec JSON)
//	   GET  /v1/catalog               the title list
//	   GET  /v1/stats                 shape, horizon, overload, recovery, replication
//	T  POST /v1/schedule              batch -> schedule + costs; both
//	                                  scheduler.Schedule calls stop on expiry
//	   POST /v1/reservations          intake ack; Submit takes no context, on purpose:
//	                                  a journaled reservation is never cut off
//	   GET  /v1/plan                  the committed plan, from one horizon reading
//	T  POST /v1/advance               epoch close; horizon.Advance stops on expiry
//	                                  and commits nothing
//	   GET  /v1/replication/wal       journal tail or snapshot; a file read, no context
//	   GET  /v1/replication/status    the node's replication status
//	   POST /v1/replication/fence     demote under a newer epoch
//	T  POST /v1/replication/promote   the catch-up drain and the source fence are
//	                                  HTTP calls bounded by the request context
//
// A client's own schedule is simulated, repaired and billed offline, by
// cmd/vspsim or the library (System.SimulateUnder, Repair, Bill): those are
// how the provider is evaluated, not what it serves.
//
// The JSON helpers, protective middleware and admission limiter come from
// internal/httpkit.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Server serves scheduling requests for one fixed infrastructure. It is
// safe for concurrent use: the model is read-only after construction and
// the rolling-horizon service does its own locking.
type Server struct {
	model    *cost.Model
	horizon  *horizon.Service
	workers  int // Options.Horizon.Workers: /v1/schedule solves on the pool an epoch close does
	shardID  string
	limiter  *httpkit.Limiter
	timeout  time.Duration              // the timed routes' budget; 0 when Options.RequestTimeout is negative
	deadline []*httpkit.DeadlineHandler // one per timed route
	mux      *http.ServeMux
	handler  http.Handler
	plan     atomic.Pointer[encodedPlan] // the last committed schedule /v1/plan served, with its encoding

	// Epoch-advance telemetry for /v1/stats: how many advances committed
	// and how long they took in aggregate, so a load harness (or the
	// gateway's poller) can read advance lag without scraping logs.
	advances     atomic.Uint64
	advanceNanos atomic.Int64
	// resolution sums the committed epochs' SORP work counts.
	resolutionMu sync.Mutex
	resolution   sorp.Work

	// Replication & failover (see replication.go). lead is always set;
	// shipper only on followers built with Options.ReplicateFrom.
	lead    *replica.Leadership
	shipper *replica.Shipper

	replMu     sync.Mutex
	replCtx    context.Context
	replCancel context.CancelFunc
	replDone   chan struct{}
}

// New builds a server around a cost model with default hardening and an
// in-memory horizon (no DataDir, so construction cannot fail).
func New(model *cost.Model) *Server {
	s, err := NewWithOptions(model, Options{})
	if err != nil {
		panic("server: default construction failed: " + err.Error())
	}
	return s
}

// NewWithOptions builds a server with explicit hardening options. It
// fails when Options.DataDir names a directory whose journaled state
// cannot be recovered (corrupt log, or a snapshot that contradicts itself
// or holds a schedule the commit predicate refuses) — a crashed service
// must not come back up serving a schedule it cannot honor.
func NewWithOptions(model *cost.Model, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var hz *horizon.Service
	if opts.DataDir != "" {
		var err error
		hz, err = horizon.Recover(opts.DataDir, model, opts.Horizon)
		if err != nil {
			return nil, err
		}
	} else {
		hz = horizon.New(model, opts.Horizon)
	}
	role := opts.Role
	if opts.ReplicateFrom != "" {
		// A node shipping another's WAL is a follower by definition.
		role = replica.RoleFollower
	}
	var epoch uint64
	if role == replica.RolePrimary {
		epoch = 1
	}
	s := &Server{
		model:   model,
		horizon: hz,
		workers: opts.Horizon.Workers,
		shardID: opts.ShardID,
		timeout: opts.RequestTimeout,
		mux:     http.NewServeMux(),
		lead:    replica.NewLeadership(role, epoch),
	}
	if opts.ReplicateFrom != "" {
		s.shipper = replica.NewShipper(hz, s.lead, replica.ShipperConfig{
			Source:   opts.ReplicateFrom,
			Interval: opts.ReplicateEvery,
		})
	}
	if opts.MaxInFlight > 0 {
		s.limiter = httpkit.NewLimiter(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/replication/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/replication/status", s.handleReplStatus)
	s.mux.HandleFunc("POST /v1/replication/fence", s.handleFence)
	s.mux.Handle("POST /v1/replication/promote", s.timed(s.handlePromote))
	s.mux.HandleFunc("GET /v1/topology", s.handleTopology)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("POST /v1/schedule", s.timed(s.handleSchedule))
	s.mux.HandleFunc("POST /v1/reservations", s.handleReservation)
	s.mux.HandleFunc("GET /v1/plan", s.handlePlan)
	s.mux.Handle("POST /v1/advance", s.timed(s.handleAdvance))
	s.handler = s.harden(opts)
	return s, nil
}

// timed puts h behind the request deadline. It is for handlers that pass
// r.Context() on to work that stops when it expires (the package comment
// lists them); with the deadline disabled it is h.
func (s *Server) timed(h http.HandlerFunc) http.Handler {
	if s.timeout <= 0 {
		return h
	}
	d := httpkit.Deadline(h, s.timeout)
	s.deadline = append(s.deadline, d)
	return d
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Recovery reports what the horizon service recovered at construction
// (zero for in-memory servers).
func (s *Server) Recovery() horizon.RecoveryStats { return s.horizon.Recovery() }

// Close stops background replication, then flushes and closes the
// horizon journal (no-op without DataDir). Call it after the HTTP
// server has drained.
func (s *Server) Close() error {
	s.stopReplication()
	return s.horizon.Close()
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTopology(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, s.model.Book().Topology().ToSpec())
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, s.model.Catalog())
}

// StatsResponse is the GET /v1/stats reply: the infrastructure's shape
// and tariff summary, the live rolling-horizon state, the overload
// counters and what recovery reconstructed at startup.
type StatsResponse struct {
	Topology topology.Stats        `json:"topology"`
	Titles   int                   `json:"titles"`
	MeanSize units.Bytes           `json:"mean_title_bytes"`
	Horizon  HorizonStats          `json:"horizon"`
	Overload OverloadStats         `json:"overload"`
	Recovery horizon.RecoveryStats `json:"recovery"`
	// Replication reports the node's role, leadership epoch, applied
	// sequence and (on followers) shipping lag; Ready mirrors /readyz.
	Replication replica.Status `json:"replication"`
	Ready       bool           `json:"ready"`
	// Shard condenses the node's place in a sharded intake tier into the
	// one block a routing gateway's load poller needs (see
	// internal/gateway); present even when unsharded, with an empty ID.
	Shard ShardInfo `json:"shard"`
}

// ShardInfo is the shard block of /v1/stats: the label the node was
// started with (-shard-id), its leadership role, the committed horizon
// epoch and the replication position behind it — everything a placement
// policy needs, in one request per shard.
type ShardInfo struct {
	ID              string `json:"id,omitempty"`
	Role            string `json:"role"`
	Epoch           int    `json:"epoch"`
	LeadershipEpoch uint64 `json:"leadership_epoch"`
	ReplicationLag  uint64 `json:"replication_lag"`
}

// HorizonStats is the rolling-horizon service's live state.
type HorizonStats struct {
	Epoch         int          `json:"epoch"`
	Horizon       simtime.Time `json:"horizon"`
	Pending       int          `json:"pending"`
	CommittedCost units.Money  `json:"committed_cost"`
	Durable       bool         `json:"durable"`
	// Advances counts committed POST /v1/advance epoch closes and
	// AdvanceMS their cumulative in-handler time, so advance lag is
	// observable per node (the load harness and the gateway poller
	// divide one by the other).
	Advances  uint64 `json:"advances"`
	AdvanceMS int64  `json:"advance_ms"`
	// Resolution sums, over those advances, what overflow resolution did:
	// iterations, (overflow, file) pairs rescheduled afresh, and pairs
	// reused from an earlier iteration — reused/(reused+evaluated) is the
	// reuse hit rate.
	Resolution sorp.Work `json:"resolution"`
}

// OverloadStats reports the admission-control counters.
type OverloadStats struct {
	// Shed counts requests rejected with 429 since startup.
	Shed uint64 `json:"shed"`
	// InFlight and MaxInFlight describe current saturation.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// DeadlineExceeded counts requests whose handler came back past the
	// request timeout with nothing written, which the deadline layer
	// answered 503. A handler that noticed the expiry itself and replied
	// 503 is not among them.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var ov OverloadStats
	if s.limiter != nil {
		ov = OverloadStats{
			Shed:        s.limiter.Shed(),
			InFlight:    s.limiter.InFlight(),
			MaxInFlight: s.limiter.Capacity(),
		}
	}
	for _, d := range s.deadline {
		ov.DeadlineExceeded += d.Exceeded()
	}
	repl, ready := s.replStatus()
	p := s.horizon.Plan() // one reading: horizon.epoch and shard.epoch cannot disagree
	s.resolutionMu.Lock()
	resolution := s.resolution
	s.resolutionMu.Unlock()
	httpkit.WriteJSON(w, http.StatusOK, StatsResponse{
		Topology: s.model.Book().Topology().ComputeStats(),
		Titles:   s.model.Catalog().Len(),
		MeanSize: s.model.Catalog().MeanSize(),
		Horizon: HorizonStats{
			Epoch:         p.Epoch,
			Horizon:       p.Horizon,
			Pending:       p.Pending,
			CommittedCost: p.Cost,
			Durable:       s.horizon.Durable(),
			Advances:      s.advances.Load(),
			AdvanceMS:     time.Duration(s.advanceNanos.Load()).Milliseconds(),
			Resolution:    resolution,
		},
		Overload:    ov,
		Recovery:    s.horizon.Recovery(),
		Replication: repl,
		Ready:       ready,
		Shard: ShardInfo{
			ID:              s.shardID,
			Role:            repl.Role,
			Epoch:           p.Epoch,
			LeadershipEpoch: repl.Epoch,
			ReplicationLag:  repl.Lag,
		},
	})
}

// ScheduleRequest is the POST /v1/schedule body.
type ScheduleRequest struct {
	Requests workload.Set `json:"requests"`
	Metric   string       `json:"metric,omitempty"` // default space-per-cost
	Policy   string       `json:"policy,omitempty"` // default cache-on-route
}

// ScheduleResponse is the POST /v1/schedule reply.
type ScheduleResponse struct {
	Schedule   *schedule.Schedule `json:"schedule"`
	Phase1Cost units.Money        `json:"phase1_cost"`
	FinalCost  units.Money        `json:"final_cost"`
	DirectCost units.Money        `json:"direct_cost"`
	Overflows  int                `json:"overflows"`
	Victims    int                `json:"victims"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		httpkit.WriteErr(w, http.StatusBadRequest, fmt.Errorf("empty request batch"))
		return
	}
	// An empty metric or policy keeps the scheduler's default, which is
	// the zero value of either field.
	cfg := scheduler.Config{Workers: s.workers}
	var err error
	if req.Metric != "" {
		if cfg.Metric, err = sorp.ParseMetric(req.Metric); err != nil {
			httpkit.WriteErr(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.Policy != "" {
		if cfg.Policy, err = ivs.ParsePolicy(req.Policy); err != nil {
			httpkit.WriteErr(w, http.StatusBadRequest, err)
			return
		}
	}
	// Reject malformed reservations up front (unknown user/title/time):
	// the scheduler validates its own output, so pre-validate inputs for a
	// 4xx rather than a 5xx.
	topo := s.model.Book().Topology()
	for _, q := range req.Requests {
		if err := q.Validate(topo, s.model.Catalog()); err != nil {
			httpkit.WriteErr(w, http.StatusBadRequest, err)
			return
		}
	}
	// Scheduling respects the request context, so an abandoned connection
	// or an expired request deadline stops the computation too.
	out, err := scheduler.Schedule(r.Context(), s.model, req.Requests, cfg)
	if err != nil {
		httpkit.WriteErr(w, schedulingStatus(err), err)
		return
	}
	direct, err := scheduler.Schedule(r.Context(), s.model, req.Requests, scheduler.Config{Policy: ivs.NoCaching, Workers: s.workers})
	if err != nil {
		httpkit.WriteErr(w, schedulingStatus(err), err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, ScheduleResponse{
		Schedule:   out.Schedule,
		Phase1Cost: out.Phase1Cost,
		FinalCost:  out.FinalCost,
		DirectCost: direct.FinalCost,
		Overflows:  out.Overflows,
		Victims:    len(out.Victims),
	})
}

// schedulingStatus maps a scheduling failure to an HTTP status: context
// expiry (client went away or the request timed out) is 503, anything else
// is an internal error.
func schedulingStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
