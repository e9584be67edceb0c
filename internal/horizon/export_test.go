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
// the admitted state encoded again.
func (s *Service) AdmitSnapshot(blob []byte) ([]byte, error) {
	st, err := s.decodeState(blob)
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}
