package horizon

import (
	"encoding/json"

	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Rewind returns a function that puts the service's state back to what it is
// now, so a benchmark can close the same epoch again and again. Only the
// in-memory state rewinds: a durable service's journal keeps what was
// appended, and its sequence numbers keep growing.
func (s *Service) Rewind() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved := s.st
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.st = saved
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
