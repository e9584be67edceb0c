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

// Checker is Check for a caller that applies the predicate at every commit.
// Its Extend checks a schedule that replaces one which already passed, and
// examines only what the replacement changed. It keeps two things from one
// call to the next: the coverage multiset, which holds an epoch's requests,
// and a kept ledger (occupancy.NewKept) of the schedule it last held, whose
// records it swaps for what changed rather than building a ledger of the
// whole schedule. Both are found by comparing schedules, never by trusting
// whatever produced them. A rolling close's Solve moves the ledger ahead of
// Extend, to the phase-1 schedule, to ask it for overflows (follow), and
// Extend then finds it there. The zero value is ready to use; a Checker is
// not safe for concurrent use, and a schedule it accepted must not be
// modified afterwards, as a committed one never is.
type Checker struct {
	cov schedule.Coverage
	// led holds held's residencies: the schedule the last follow moved it to,
	// or the prev of the last close that Extend refused or Solve failed;
	// nil until the first call. Either way held passed
	// schedule.ValidateStructure.
	led  *occupancy.Ledger
	held *schedule.Schedule
	topo *topology.Topology // led's model
	cat  *media.Catalog
	// overflowed is whether the last phase-1 schedule a rolling Solve
	// resolved overflowed; while it did, Solve does not ask led first.
	overflowed bool
}

// Check is the commit predicate; see the function Check. It is Extend from the
// empty schedule.
func (c *Checker) Check(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule, served workload.Set) Verdict {
	return c.Extend(topo, catalog, nil, s, served)
}

// Extend is the commit predicate for a schedule next that replaces prev, when
// prev passed it against a request set R and next must serve R + added. Its
// verdict is Check(next, R + added)'s, the same records in the same words,
// and each half costs what changed: the structural half is
// schedule.ValidateExtension from prev, coverage is
// schedule.Coverage.Extends, and the capacity half reads the kept ledger,
// moved from the schedule it held to next by occupancy.Ledger.Follow, which
// compares the two (follow). When Solve has already moved it to next from
// prev, neither is done again. Whatever refuses next, the ledger then holds
// prev. A nil prev is the empty schedule, R is empty, and Extend is Check.
func (c *Checker) Extend(topo *topology.Topology, catalog *media.Catalog, prev, next *schedule.Schedule, added workload.Set) Verdict {
	ovs, err := c.follow(topo, catalog, prev, next)
	v := Verdict{Invalid: err, Malformed: err != nil}
	if err == nil {
		v = Verdict{Invalid: c.cov.Extends(prev, next, added), Overflows: ovs}
	}
	if v.Err() != nil && c.held != prev {
		c.back(prev)
	}
	return v
}

// follow is Extend's structural and capacity halves: it checks next's
// structure, moves the kept ledger to next, and returns next's overflows. The
// structure is checked as an extension of the schedule the ledger holds,
// which passed it — prev, unless Solve has moved the ledger on — or of prev
// when the ledger is new, so it costs what differs from that one, and its
// verdict is ValidateStructure's either way. The schedule the ledger holds is
// neither checked nor followed again, only asked. A malformed next is refused
// before the ledger reads it, and the ledger stays where it was.
func (c *Checker) follow(topo *topology.Topology, catalog *media.Catalog, prev, next *schedule.Schedule) ([]occupancy.Overflow, error) {
	base := c.held
	if c.led == nil || c.topo != topo || c.cat != catalog {
		c.led, c.held, c.topo, c.cat = occupancy.NewKept(topo, catalog), nil, topo, catalog
		base = prev
	}
	if next != c.held {
		if err := next.ValidateExtension(topo, catalog, base); err != nil {
			return nil, err
		}
		c.led.Follow(c.held, next)
		c.held = next
	}
	return c.led.AllOverflows(), nil
}

// back moves the kept ledger to prev, the committed schedule a close that
// did not commit was to replace.
func (c *Checker) back(prev *schedule.Schedule) {
	c.led.Follow(c.held, prev)
	c.held = prev
}

// Ledger returns the kept ledger, which holds the last schedule Extend
// accepted (or the prev of the last close that did not commit), nil before
// the first call. It must only be read.
func (c *Checker) Ledger() *occupancy.Ledger { return c.led }

// Overflows is the capacity half of the predicate on its own. The ledger is
// rebuilt from the schedule's residencies alone rather than taken from
// whatever produced the schedule: an occupancy account that the solver
// updated incrementally cannot vouch for itself.
func Overflows(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule) []occupancy.Overflow {
	return occupancy.FromSchedule(topo, catalog, s).AllOverflows()
}
