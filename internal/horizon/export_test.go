package horizon

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"

	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Rewind returns a function that puts the service's state back to what it is
// now, so a benchmark can close the same epoch again and again. Only the
// in-memory state rewinds, with the folds of its committed schedule and the
// bar's kept ledger: a durable service's journal keeps what was appended,
// and its sequence numbers keep growing. The bar's ledger goes back through
// Extend, from the saved schedule to itself with no request added, which
// follows it from the schedule it holds to the saved one; the next close then
// examines what changed from there, as a close from the saved state does.
// Whether Solve asks that ledger first stays as the last close left it: on a
// trace that never overflows, as the history benchmarks' does, it is the
// saved state's. It needs a commit behind it.
func (s *Service) Rewind() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved, folds, foldsOf := s.st, maps.Clone(s.folds), s.foldsOf
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		// A close builds its folds in the map the one before it read, so the
		// service gets a copy of the saved folds, never the saved map itself.
		s.st, s.folds, s.foldsOf = saved, maps.Clone(folds), foldsOf
		if err := s.checker.Extend(s.m.Book().Topology(), s.m.Catalog(), saved.Committed, saved.Committed, nil).Err(); err != nil {
			panic(fmt.Sprintf("horizon: rewinding the bar to a committed schedule: %v", err))
		}
	}
}

// wireState is a state as its snapshot payload spells it, the committed
// schedule as testutil's mirror, so that json.Marshal of it owes nothing to
// the payload's writer or to Schedule.AppendJSON.
type wireState struct {
	Horizon      simtime.Time           `json:"horizon"`
	Epoch        int                    `json:"epoch"`
	Clock        simtime.Time           `json:"clock"`
	EpochClock   simtime.Time           `json:"epoch_clock"`
	Cost         units.Money            `json:"cost"`
	Committed    *testutil.WireSchedule `json:"committed"`
	Accepted     workload.Set           `json:"accepted"`
	Pending      workload.Set           `json:"pending"`
	PendingBytes float64                `json:"pending_bytes"`
}

// wire spells the intake buffer, Accepted[planned:], as the snapshot does:
// null when it is empty.
func wire(st state) wireState {
	pending := st.Accepted[st.planned:]
	if len(pending) == 0 {
		pending = nil
	}
	return wireState{st.Horizon, st.Epoch, st.Clock, st.EpochClock, st.Cost,
		testutil.Wire(st.Committed), st.Accepted, pending, st.PendingBytes}
}

// AdmitSnapshot takes a payload through decodeState, the door, and returns
// the admitted state encoded again twice: by its one writer, state.appendJSON,
// and by json.Marshal of its mirror (wireState).
func (s *Service) AdmitSnapshot(blob []byte) (appended, marshalled []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.decodeState(blob)
	if err != nil {
		return nil, nil, err
	}
	if appended, err = st.appendJSON(nil); err != nil {
		return nil, nil, err
	}
	if marshalled, err = json.Marshal(wire(st)); err != nil {
		return nil, nil, err
	}
	return appended, marshalled, nil
}

// CorruptClose plans the epoch to the given time as Advance does, lets corrupt
// break a copy of the solved schedule, and returns what the commit bar says of
// the broken state as the extension of the held one, and what the snapshot
// door says of its payload. The service keeps the state it had.
func (s *Service) CorruptClose(ctx context.Context, to simtime.Time, corrupt func(*schedule.Schedule)) (commit, door error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, _, err := s.solve(ctx, s.st, to)
	if err != nil {
		return err, err
	}
	next.Committed = next.Committed.Clone() // the frozen prefix is history's
	corrupt(next.Committed)
	commit = s.check(&s.st, &next)
	blob, err := next.appendJSON(nil)
	if err != nil {
		return commit, err
	}
	_, door = s.decodeState(blob)
	return commit, door
}

// KeptLedgerDiff reports where the bar's kept ledger first answers otherwise
// than a fresh build of the committed schedule, "" where it is one. It needs
// a commit behind it.
func (s *Service) KeptLedgerDiff() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	topo := s.m.Book().Topology()
	return occupancy.Diff(topo, s.checker.Ledger(), occupancy.FromSchedule(topo, s.m.Catalog(), s.st.Committed))
}

// ParkSnapshot makes the next snapshot writer wait before it writes: parked
// is closed once it waits, and release lets it go on. The commit that made
// the snapshot due is journaled and installed by then, and the lock released.
func (s *Service) ParkSnapshot() (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.parkSnapshot = func() {
		s.parkSnapshot = nil // runs under snapMu
		close(p)
		<-r
	}
	return p, func() { close(r) }
}
