package gateway

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// View is the per-shard state offered to a placement policy at decision
// time: the gateway's own live counters plus the shard's last polled
// /v1/stats shard block.
type View struct {
	// Index is the shard's position in the gateway configuration.
	Index int
	// ID is the shard's label.
	ID string
	// Outstanding is the gateway's live count of calls currently forwarded
	// to the shard and not yet answered (broadcast advances included). Unlike
	// the polled fields it is never stale, which is what makes collision
	// avoidance possible at sub-poll-interval timescales.
	Outstanding int64
	// Routed counts reservations ever placed on the shard.
	Routed uint64
	// HasStats reports whether the polled fields below are populated (the
	// most recent /v1/stats poll of this shard succeeded).
	HasStats bool
	// Pending is the shard's un-planned reservation backlog.
	Pending int
	// InFlight is the shard's admission-control saturation.
	InFlight int
	// Shed counts requests the shard rejected with 429 since it started.
	Shed uint64
	// Epoch is the shard's committed horizon epoch.
	Epoch int
}

// RouteInfo describes the reservation being placed.
type RouteInfo struct {
	User  topology.UserID
	Video media.VideoID
	Start simtime.Time
	// Region is the requesting neighborhood's region index (see
	// topology.UserRegions), or -1 when the gateway has no topology to
	// derive it.
	Region int
}

// Placement chooses the shard for one reservation. Place is always
// invoked under the gateway's placement lock — implementations may keep
// unguarded state, and the chosen shard's Outstanding counter is bumped
// atomically with the decision — and must return an index in
// [0, len(shards)). A Placement instance must not be shared between
// gateways.
type Placement interface {
	Name() string
	Place(r RouteInfo, shards []View) int
}

// RoundRobin rotates through the shards in configuration order,
// ignoring every observable. It is the baseline the policy study
// measures the others against.
func RoundRobin() Placement { return &roundRobin{} }

type roundRobin struct{ next int }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Place(_ RouteInfo, shards []View) int {
	i := p.next % len(shards)
	p.next = (i + 1) % len(shards)
	return i
}

// LeastLoaded prefers the shard with the fewest outstanding gateway
// calls, breaking ties by the polled backlog (pending + in-flight) and
// then by configuration order. The live Outstanding counter leads
// because the polled stats are one poll interval stale — routing on them
// alone sends bursts into a shard that is already busy.
func LeastLoaded() Placement { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Place(_ RouteInfo, shards []View) int {
	best := 0
	for i := 1; i < len(shards); i++ {
		if lighter(shards[i], shards[best]) {
			best = i
		}
	}
	return best
}

func lighter(a, b View) bool {
	if a.Outstanding != b.Outstanding {
		return a.Outstanding < b.Outstanding
	}
	if la, lb := a.Pending+a.InFlight, b.Pending+b.InFlight; la != lb {
		return la < lb
	}
	return false // full tie: keep the earlier shard
}

// Locality routes by the requesting neighborhood's region: users of
// region k always land on shard k, so a shard's plan only ever touches
// its own corner of the metro ring. Requests without a region (no
// topology configured) fall back to the deterministic video hash.
func Locality() Placement { return locality{} }

type locality struct{}

func (locality) Name() string { return "locality" }

func (locality) Place(r RouteInfo, shards []View) int {
	if r.Region >= 0 {
		return r.Region % len(shards)
	}
	return hashPlace(r.Video, len(shards))
}

// Hash partitions the catalog: a title always lands on the same shard,
// so no two shards ever plan copies of the same video. The deterministic
// request-to-shard mapping is also what the failover tests lean on.
func Hash() Placement { return hashPolicy{} }

type hashPolicy struct{}

func (hashPolicy) Name() string { return "hash" }

func (hashPolicy) Place(r RouteInfo, shards []View) int {
	return hashPlace(r.Video, len(shards))
}

func hashPlace(v media.VideoID, n int) int {
	h := fnv.New32a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// ParsePlacement maps a policy name (the -policy flag) to a fresh
// policy instance.
func ParsePlacement(name string) (Placement, error) {
	switch name {
	case "", "round-robin":
		return RoundRobin(), nil
	case "least-loaded":
		return LeastLoaded(), nil
	case "locality":
		return Locality(), nil
	case "hash":
		return Hash(), nil
	}
	return nil, fmt.Errorf("gateway: unknown placement policy %q (want round-robin | least-loaded | locality | hash)", name)
}
