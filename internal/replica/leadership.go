// Package replica implements the replicated-intake tier: WAL shipping
// from a serving primary to a warm standby, the follower-side applier
// that feeds shipped records through the horizon service's deterministic
// replay path, and the epoch-numbered leadership token that fences a
// demoted primary so two nodes never both accept submits.
//
// Shipping is follower-driven: the shipper polls the primary's
// replication endpoint, resuming from the follower's applied sequence,
// verifies each record's CRC, and applies it (idempotently by sequence)
// to the local service. Failover promotes a caught-up follower — after
// re-applying the commit predicate to its committed schedule — and bumps
// the leadership epoch; the old primary, fenced with the new epoch,
// rejects all further intake with ErrStaleLeadership.
//
// Split-brain is out of scope by design: fencing is cooperative (the
// old primary must be reachable to learn it was deposed). An
// unreachable old primary keeps accepting submits until an operator or
// load balancer cuts it off; preventing that without reachability needs
// leases or quorum, which this tier deliberately does not implement.
// DESIGN.md §12 records the non-goals.
package replica

import (
	"errors"
	"fmt"
	"sync"
)

// Role is a node's serving role.
type Role int

const (
	// RolePrimary nodes accept submits and serve the replication stream.
	// It is the zero value: a standalone node is a primary.
	RolePrimary Role = iota
	// RoleFollower nodes apply replicated records and reject direct
	// intake; a fenced ex-primary is a follower too.
	RoleFollower
)

// String returns the flag spelling of the role.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// ParseRole parses the flag spelling ("primary", "follower").
func ParseRole(s string) (Role, error) {
	for _, r := range []Role{RolePrimary, RoleFollower} {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("replica: unknown role %q (want primary or follower)", s)
}

// ErrStaleLeadership rejects an operation made under a superseded
// leadership epoch: a submit to a fenced ex-primary, or a fence/
// replication request carrying an epoch the node has already moved past.
var ErrStaleLeadership = errors.New("replica: stale leadership epoch")

// Leadership is a node's view of who leads: its role plus the highest
// leadership epoch it has observed. Epochs only grow; promotion bumps
// the epoch, and any message carrying a higher epoch demotes a primary
// on the spot (it has provably been superseded).
type Leadership struct {
	mu    sync.Mutex
	role  Role
	epoch uint64
}

// NewLeadership returns a node's leadership state. A primary must start
// at epoch >= 1; a follower conventionally starts at 0 and adopts the
// primary's epoch from the replication stream.
func NewLeadership(role Role, epoch uint64) *Leadership {
	if role == RolePrimary && epoch == 0 {
		epoch = 1
	}
	return &Leadership{role: role, epoch: epoch}
}

// Role returns the current role.
func (l *Leadership) Role() Role {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.role
}

// Epoch returns the highest leadership epoch observed.
func (l *Leadership) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// IsPrimary reports whether the node currently leads.
func (l *Leadership) IsPrimary() bool { return l.Role() == RolePrimary }

// CheckPrimary returns nil when the node leads, and otherwise the
// ErrStaleLeadership-wrapping error every fenced intake path surfaces.
func (l *Leadership) CheckPrimary() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.role == RolePrimary {
		return nil
	}
	return fmt.Errorf("%w: this node is a follower (observed leader epoch %d)", ErrStaleLeadership, l.epoch)
}

// Observe folds in a leadership epoch seen on replication traffic. A
// higher epoch is adopted — demoting a primary, which has provably been
// superseded — and the return value reports whether a demotion
// happened.
func (l *Leadership) Observe(epoch uint64) (demoted bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.epoch {
		return false
	}
	demoted = l.role == RolePrimary
	l.epoch = epoch
	l.role = RoleFollower
	return demoted
}

// Fence demotes the node under a newer leadership epoch. A fence that
// does not advance the epoch is itself stale and rejected with
// ErrStaleLeadership — the fencer, not this node, is behind.
func (l *Leadership) Fence(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.epoch {
		return fmt.Errorf("%w: fence at epoch %d does not supersede epoch %d", ErrStaleLeadership, epoch, l.epoch)
	}
	l.epoch = epoch
	l.role = RoleFollower
	return nil
}

// Promote turns a follower into the primary under a new, higher epoch
// and returns that epoch. Promoting a node that already leads is an
// error: it would bump the epoch for nothing and fence its own
// followers' view.
func (l *Leadership) Promote() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.role == RolePrimary {
		return 0, fmt.Errorf("replica: already primary at epoch %d", l.epoch)
	}
	l.epoch++
	l.role = RolePrimary
	return l.epoch, nil
}
