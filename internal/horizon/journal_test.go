package horizon

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// The journal record is formatted by hand and decoded by encoding/json, so
// the struct tags stay the format's definition: walOp.appendJSON must equal
// json.Marshal(walOp) byte for byte. The corners are the fields omitempty
// drops at zero, negative values and the extremes; a seeded sweep covers the
// rest, and a field added to walOp has to be added to both.
func TestJournalOpBytesEqualMarshal(t *testing.T) {
	if n := reflect.TypeOf(walOp{}).NumField(); n != 6 {
		t.Fatalf("walOp has %d fields; appendJSON and this sweep know six", n)
	}
	ops := []walOp{
		{Op: opSubmit},
		{Op: opAdvance},
		{Op: opSubmit, At: 86400, User: 23, Video: 49, Start: 86400},
		{Op: opSubmit, At: 0, User: 0, Video: 0, Start: 7},
		{Op: opSubmit, At: -1, User: -2, Video: -3, Start: -4},
		{Op: opAdvance, To: 0},
		{Op: opAdvance, To: -3600},
		{Op: opAdvance, To: math.MaxInt64},
		{Op: opSubmit, At: math.MinInt64, Start: math.MaxInt64, User: math.MaxInt64, Video: math.MinInt64},
	}
	rng := rand.New(rand.NewSource(21))
	field := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(100)
		case 2:
			return -rng.Int63n(1 << 40)
		}
		return rng.Int63()
	}
	for i := 0; i < 2000; i++ {
		ops = append(ops, walOp{
			Op:    []string{opSubmit, opAdvance}[rng.Intn(2)],
			At:    simtime.Time(field()),
			User:  topology.UserID(field()),
			Video: media.VideoID(field()),
			Start: simtime.Time(field()),
			To:    simtime.Time(field()),
		})
	}
	buf := []byte("left over from the record before")
	for _, op := range ops {
		want, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		buf = op.appendJSON(buf[:0])
		if !bytes.Equal(buf, want) {
			t.Fatalf("%+v:\n appendJSON  %s\n json.Marshal %s", op, buf, want)
		}
		var back walOp
		if err := json.Unmarshal(buf, &back); err != nil || back != op {
			t.Fatalf("%+v decodes back as %+v (%v)", op, back, err)
		}
	}
}
