package scheduler

import (
	"fmt"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// Verdict is the commit predicate's answer for one schedule. A schedule may
// be committed — returned by Schedule, published by a horizon epoch, handed
// back by repair — only when both halves are empty.
type Verdict struct {
	// Invalid is schedule.Validate's complaint: a broken structural
	// invariant, or a mismatch with the set of requests the schedule must
	// serve (one unserved, one served twice, one nobody asked for).
	Invalid error
	// Malformed reports that Invalid is a structural violation. The records
	// of such a schedule cannot be trusted as indices, so the capacity half
	// was not run, and nothing else should read the schedule either.
	Malformed bool
	// Overflows are the storage over-commit situations of the schedule.
	Overflows []occupancy.Overflow
}

// Err returns nil for a committable schedule and otherwise names the first
// failed half, wrapping Invalid.
func (v Verdict) Err() error {
	if v.Invalid != nil {
		return fmt.Errorf("invalid schedule: %w", v.Invalid)
	}
	if len(v.Overflows) > 0 {
		return fmt.Errorf("%d storage overflow(s) unresolved, first %v", len(v.Overflows), v.Overflows[0])
	}
	return nil
}

// Check is the commit predicate, the single statement of "valid and
// overflow-free": the schedule passes schedule.Validate against exactly the
// requests it must serve, and no storage is over-committed. It is total: the
// schedule may be any decoded value, because the ledger — which indexes by
// the node and video IDs a structurally valid schedule vouches for — is
// built only once the structural half has passed. On a well-formed schedule
// request coverage and capacity both run, so an auditor can report each.
func Check(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule, served workload.Set) Verdict {
	return new(Checker).Check(topo, catalog, s, served)
}

// Checker is Check for a caller that applies the predicate at every commit:
// it keeps the coverage multiset from one call to the next, so the half that
// counts every request served is not a fresh history-sized map each time. The
// zero value is ready to use; a Checker is not safe for concurrent use.
type Checker struct {
	cov schedule.Coverage
}

// Check is the commit predicate; see the function Check.
func (c *Checker) Check(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule, served workload.Set) Verdict {
	if err := s.ValidateStructure(topo, catalog); err != nil {
		return Verdict{Invalid: err, Malformed: true}
	}
	return Verdict{
		Invalid:   c.cov.Serves(s, served),
		Overflows: Overflows(topo, catalog, s),
	}
}

// Overflows is the capacity half of the predicate on its own. The ledger is
// rebuilt from the schedule's residencies alone rather than taken from
// whatever produced the schedule: an occupancy account that the solver
// updated incrementally cannot vouch for itself.
func Overflows(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule) []occupancy.Overflow {
	return occupancy.FromSchedule(topo, catalog, s).AllOverflows()
}
