package gateway

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/vodsim/vsp/internal/media"
)

// View is the per-shard state offered to a placement policy at decision
// time: counters the gateway updates itself, so never stale.
type View struct {
	// Outstanding is the gateway's live count of calls currently forwarded
	// to the shard and not yet answered (broadcast advances included).
	Outstanding int64
	// Routed counts reservations ever placed on the shard.
	Routed uint64
}

// RouteInfo describes the reservation being placed.
type RouteInfo struct {
	Video media.VideoID
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
// calls and rotates among ties in configuration order, so serial traffic,
// where every shard ties, spreads like round-robin. Ties do not break by
// Routed: a shard back from a breaker ejection would then take every tied
// request until it caught up.
func LeastLoaded() Placement { return &leastLoaded{} }

type leastLoaded struct{ next int }

func (p *leastLoaded) Name() string { return "least-loaded" }

func (p *leastLoaded) Place(_ RouteInfo, shards []View) int {
	n := len(shards)
	best := p.next % n
	for k := 1; k < n; k++ {
		if i := (p.next + k) % n; shards[i].Outstanding < shards[best].Outstanding {
			best = i
		}
	}
	p.next = (best + 1) % n
	return best
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
