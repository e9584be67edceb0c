package api

import (
	"encoding/json"
	"testing"
)

// FuzzReservationRequest holds the intake door's screening to the API's
// word: whatever decodes and passes Screen has non-negative IDs and start,
// and arrives no later than it starts.
func FuzzReservationRequest(f *testing.F) {
	f.Add(`{"user":0,"video":0,"start":3600}`)
	f.Add(`{"user":3,"video":7,"start":3600,"at":1800}`)
	f.Add(`{"user":0,"video":0,"start":488,"at":3600000}`)
	f.Add(`{"user":0,"video":0,"start":60,"at":60}`)
	f.Add(`{"user":0,"video":0,"start":60,"at":-9223372036854775808}`)
	f.Add(`{"user":-1,"video":0,"start":0}`)
	f.Add(`{"user":0,"video":-1,"start":0}`)
	f.Add(`{"user":0,"video":0,"start":-5}`)
	f.Add(`{"user":0,"video":0,"start":1,"at":null}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, in string) {
		var req ReservationRequest
		if json.Unmarshal([]byte(in), &req) != nil {
			return
		}
		q, at, err := req.Screen()
		if err != nil {
			return
		}
		if q.User < 0 || q.Video < 0 || q.Start < 0 {
			t.Fatalf("%s passed screening as %+v", in, q)
		}
		if at > q.Start {
			t.Fatalf("%s passed screening arriving at %v, after its start %v", in, at, q.Start)
		}
		if q.User != req.User || q.Video != req.Video || q.Start != req.Start || (req.At != nil && at != *req.At) {
			t.Fatalf("%s screened into %+v arriving at %v", in, q, at)
		}
	})
}
