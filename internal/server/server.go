// Package server exposes the scheduler as a JSON-over-HTTP service: the
// form a Video-On-Reservation operator would actually deploy. A server is
// bound to one priced infrastructure (topology + catalog + rates) and runs
// the rolling-horizon reservation intake, durable and replicated when asked
// to be. A reservation enters through one door, POST /v1/reservations, and
// is planned only when an epoch closes (horizon.go); an offline batch is
// solved by cmd/vspsched or the library's System.Schedule, not here.
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
//	   POST /v1/reservations          intake ack; Submit takes no context, on purpose:
//	                                  a journaled reservation is never cut off
//	   GET  /v1/plan                  the committed plan, from one horizon reading
//	T  POST /v1/advance               epoch close; horizon.Advance stops on expiry
//	                                  and commits nothing
//	   GET  /v1/replication/wal       journal tail or snapshot; a caught-up poll is held
//	                                  up to replHold, ended early by the next append or
//	                                  by the client going away (untimed: the hold is
//	                                  its own bound)
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
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/simtime"
)

// Server serves scheduling requests for one fixed infrastructure. It is
// safe for concurrent use: the model is read-only after construction and
// the rolling-horizon service does its own locking.
type Server struct {
	model    *cost.Model
	horizon  *horizon.Service
	shardID  string
	limiter  *httpkit.Limiter
	timeout  time.Duration              // the timed routes' budget; 0 when Options.RequestTimeout is negative
	deadline []*httpkit.DeadlineHandler // one per timed route
	mux      *http.ServeMux
	handler  http.Handler
	plan     atomic.Pointer[encodedPlan] // the last committed schedule /v1/plan served, with its encoding

	// The epoch closer (horizon.go): a primary closes its own epoch when a
	// trigger fires, one close at a time. closeCtx ends at Close.
	advanceLag  simtime.Duration
	closeCtx    context.Context
	stopClosing context.CancelFunc
	closeMu     sync.Mutex
	closing     bool // a close is running
	closeAgain  bool // a trigger fired during it
	closeWG     sync.WaitGroup

	// Epoch-advance telemetry for /v1/stats: how many advances committed,
	// explicit and triggered, and how long they took in aggregate, so a
	// load harness (or the gateway's poller) can read advance lag without
	// scraping logs.
	advances     atomic.Uint64
	advanceNanos atomic.Int64
	// resolution sums the committed epochs' SORP work counts.
	resolutionMu sync.Mutex
	resolution   api.Work

	// Replication & failover (see replication.go). lead is always set;
	// shipper only on followers built with Options.ReplicateFrom.
	lead    *Leadership
	shipper *Shipper

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
// must not come back up serving a schedule it cannot honor. A negative
// Options.AdvanceLag is refused too: a triggered close would land ahead of
// the newest arrival and refuse the reservations after it as late.
func NewWithOptions(model *cost.Model, opts Options) (*Server, error) {
	if opts.AdvanceLag < 0 {
		return nil, fmt.Errorf("server: negative advance lag %v", opts.AdvanceLag)
	}
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
		role = RoleFollower
	}
	s := &Server{
		model:      model,
		horizon:    hz,
		shardID:    opts.ShardID,
		timeout:    opts.RequestTimeout,
		mux:        http.NewServeMux(),
		lead:       NewLeadership(role, 0),
		advanceLag: opts.AdvanceLag,
	}
	s.closeCtx, s.stopClosing = context.WithCancel(context.Background())
	if opts.ReplicateFrom != "" {
		s.shipper = NewShipper(hz, s.lead, opts.ReplicateFrom)
	}
	if opts.MaxInFlight > 0 {
		s.limiter = httpkit.NewLimiter(opts.MaxInFlight, opts.MaxQueue, DefaultQueueWait)
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
func (s *Server) Recovery() api.RecoveryStats { return s.horizon.Recovery() }

// Close stops the epoch closer, cancelling a close in flight, and background
// replication, then flushes and closes the horizon journal (no-op without
// DataDir). Call it after the HTTP server has drained.
func (s *Server) Close() error {
	s.closeMu.Lock()
	s.stopClosing()
	s.closeMu.Unlock()
	s.closeWG.Wait()
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

// StatsResponse is api.StatsResponse under the name bench/ reads; ROADMAP item 8
// retires the alias.
type StatsResponse = api.StatsResponse

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var ov api.OverloadStats
	if s.limiter != nil {
		ov = api.OverloadStats{
			Shed:        s.limiter.Shed(),
			InFlight:    s.limiter.InFlight(),
			MaxInFlight: s.limiter.Capacity(),
		}
	}
	for _, d := range s.deadline {
		ov.DeadlineExceeded += d.Exceeded()
	}
	repl, ready := s.readiness()
	p := s.horizon.Plan() // one reading: horizon.epoch and shard.epoch cannot disagree
	s.resolutionMu.Lock()
	resolution := s.resolution
	s.resolutionMu.Unlock()
	httpkit.WriteJSON(w, http.StatusOK, api.StatsResponse{
		Topology: s.model.Book().Topology().ComputeStats(),
		Titles:   s.model.Catalog().Len(),
		MeanSize: s.model.Catalog().MeanSize(),
		Horizon: api.HorizonStats{
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
		Shard: api.ShardInfo{
			ID:              s.shardID,
			Role:            repl.Role,
			Epoch:           p.Epoch,
			LeadershipEpoch: repl.Epoch,
			ReplicationLag:  repl.Lag,
		},
	})
}
