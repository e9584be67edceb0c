package server

import (
	"errors"
	"fmt"
	"sync"

	"github.com/vodsim/vsp/internal/api"
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

// String returns the role as the replication status spells it.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return api.RolePrimary
	case RoleFollower:
		return "follower"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// ErrStaleLeadership rejects an operation made under a superseded
// leadership epoch: a submit to a fenced ex-primary, or a fence/
// replication request carrying an epoch the node has already moved past.
var ErrStaleLeadership = errors.New(api.StaleLeadership)

// Leadership is a node's view of who leads: its role plus the highest
// leadership epoch it has observed. Epochs only grow; promotion bumps
// the epoch, and any message carrying a higher epoch demotes a primary
// on the spot (it has provably been superseded).
type Leadership struct {
	mu    sync.Mutex
	role  Role
	epoch uint64
}

// NewLeadership returns a node's leadership state at the given epoch. A
// primary given 0 starts at epoch 1, the first any node leads under; a
// follower conventionally starts at 0 and adopts the primary's epoch from
// the replication stream.
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
		return 0, fmt.Errorf("already primary at epoch %d", l.epoch)
	}
	l.epoch++
	l.role = RolePrimary
	return l.epoch, nil
}
