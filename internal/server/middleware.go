package server

import (
	"net/http"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/simtime"
)

// Options tunes the hardening middleware around the API handlers.
type Options struct {
	// RequestTimeout bounds the handling time of the requests whose work can
	// be stopped — /v1/advance and a promotion's drain: it is
	// the deadline on their request context, which those handlers notice and
	// answer with 503; one that returns past it with nothing written gets a
	// 503 JSON body written for it (httpkit.Deadline). The other routes do
	// not carry it (see the package comment). 0 means DefaultRequestTimeout;
	// negative disables the deadline (used by tests that need slow handlers).
	RequestTimeout time.Duration
	// Horizon configures the rolling-horizon intake service behind
	// /v1/reservations, /v1/plan and /v1/advance. The zero value is usable:
	// no epoch trigger ever fires on its own and clients advance explicitly.
	Horizon horizon.Config
	// AdvanceLag holds the target of the epoch closes a primary runs itself,
	// when one of Horizon's triggers fires, this far behind the newest
	// arrival instant it has accepted, so a straggler up to AdvanceLag behind
	// never lands inside the frozen window. Negative is refused.
	AdvanceLag simtime.Duration
	// DataDir makes the rolling-horizon service durable: every accepted
	// reservation and committed epoch is journaled to a write-ahead log
	// under this directory, and construction recovers prior state from it
	// (refusing a state an epoch commit would not have accepted). Empty
	// keeps the horizon in memory, as before. The fsync policy and snapshot
	// period come from Horizon (Fsync, SnapshotEvery).
	DataDir string
	// MaxInFlight bounds concurrently handled requests; excess requests
	// wait briefly in a bounded queue and are then shed with 429 +
	// Retry-After. 0 means DefaultMaxInFlight; negative disables
	// admission control.
	MaxInFlight int
	// MaxQueue bounds the overload wait queue (0 = DefaultMaxQueue;
	// negative = no queue, shed immediately at saturation). A queued
	// request waits up to DefaultQueueWait for a slot before it is shed.
	MaxQueue int
	// Role is the node's serving role (default RolePrimary). Followers
	// reject stateful intake with the stale-leadership error until
	// promoted via POST /v1/replication/promote.
	Role Role
	// ReplicateFrom is a primary's base URL; setting it makes the node a
	// follower that ships the primary's WAL into its own horizon service
	// once StartReplication is called. Combine with DataDir so the
	// applied position survives a follower restart.
	ReplicateFrom string
	// ShardID labels this node's shard in a sharded intake tier; it is
	// echoed in the /v1/stats shard block so a routing gateway can match
	// polled load to its configured shards. Empty for unsharded nodes.
	ShardID string
}

const (
	// DefaultRequestTimeout is the per-request handling budget.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxInFlight bounds concurrently handled requests. Scheduling
	// is CPU-bound, so admitting far beyond the core count only adds
	// queueing delay dressed up as work in progress.
	DefaultMaxInFlight = 64
	// DefaultMaxQueue is the overload wait-queue depth.
	DefaultMaxQueue = 256
	// DefaultQueueWait is how long a queued request may wait for a slot.
	DefaultQueueWait = time.Second
)

func (o Options) withDefaults() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	return o
}

// harden wraps the router with the protective layers every route carries,
// innermost first: body-size capping (so handlers can never buffer an
// unbounded body), admission control, the Retry-After decoration of 503s,
// and outermost panic recovery, which so covers every layer. The request
// deadline is not among them: it sits inside the router, on the routes
// registered through timed, so queue wait does not consume the handling
// budget.
func (s *Server) harden(opts Options) http.Handler {
	h := httpkit.LimitBody(s.mux, api.DefaultMaxRequestBytes)
	if s.limiter != nil {
		h = s.limiter.Wrap(h)
	}
	return httpkit.RecoverPanics(httpkit.RetryAfter503(h))
}
