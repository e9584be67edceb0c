package api

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/simtime"
)

// A victim's wire form keeps the field names and, for a finite heat, the
// bytes encoding/json gives the plain struct; a non-finite heat travels as
// a string and comes back as the same float.
func TestVictimJSONRoundTrip(t *testing.T) {
	type plain Victim // no methods: what the struct encoded as before
	finite := Victim{Video: 3, Node: 2, Window: simtime.NewInterval(10, 99), Heat: 7.537456863276413e+10, Overhead: 1961.2111}
	got, err := json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain(finite))
	if string(got) != string(want) {
		t.Errorf("finite victim encodes as\n%s\nwant the plain struct's\n%s", got, want)
	}

	list := []Victim{finite, finite, finite}
	list[0].Heat = math.Inf(1)
	list[1].Heat = math.Inf(-1)
	blob, err := json.Marshal(list)
	if err != nil {
		t.Fatalf("a victim list with infinite heats must encode: %v", err)
	}
	var back []Victim
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("decode %s: %v", blob, err)
	}
	if !reflect.DeepEqual(back, list) {
		t.Errorf("round trip\n got %+v\nwant %+v\nwire %s", back, list, blob)
	}

	var v Victim
	if err := json.Unmarshal([]byte(`{"Heat":"NaN"}`), &v); err != nil || !math.IsNaN(v.Heat) {
		t.Errorf(`"NaN" decoded to %v, %v`, v.Heat, err)
	}
	for _, bad := range []string{`{"Heat":"hot"}`, `{"Heat":"1.5"}`, `{"Heat":true}`} {
		if err := json.Unmarshal([]byte(bad), &v); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
}
