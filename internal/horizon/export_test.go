package horizon

import "encoding/json"

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

// AdmitSnapshot takes a payload through decodeState, the door, and returns
// the admitted state encoded again twice: by its one writer, state.appendJSON,
// and by json.Marshal.
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
	if marshalled, err = json.Marshal(st); err != nil {
		return nil, nil, err
	}
	return appended, marshalled, nil
}
