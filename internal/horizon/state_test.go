package horizon

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// The live state struct is the snapshot and replication payload, and
// encoding/json drops an unexported or untagged-and-renamed field without a
// word. After a multi-epoch run that leaves intake pending every field is
// non-zero, so each must be exported, tagged, and still non-zero after
// Marshal → Unmarshal; a field added later that fails this would silently
// vanish from every snapshot.
func TestStateSurvivesItsEncoding(t *testing.T) {
	r, err := testutil.Build(testutil.Params{
		Storages: 4, UsersPerStorage: 3, Titles: 10, CapacityGB: 2, RequestsPerUser: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	svc := New(r.Model, Config{})
	third := len(reqs) / 3
	for i, req := range reqs {
		if _, err := svc.Submit(req.Start, req); err != nil {
			t.Fatal(err)
		}
		if i == third || i == 2*third { // two epochs; the last third stays pending
			if _, err := svc.Advance(context.Background(), req.Start); err != nil {
				t.Fatal(err)
			}
		}
	}

	blob, err := json.Marshal(svc.st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := svc.decodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(svc.st)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if tag := f.Tag.Get("json"); !f.IsExported() || tag == "" || tag == "-" {
			t.Errorf("state.%s must be exported and json-tagged (tag %q): snapshots would drop it", f.Name, tag)
		}
		if reflect.ValueOf(svc.st).Field(i).IsZero() {
			t.Errorf("state.%s is zero after the run: the test no longer exercises it", f.Name)
		}
		if reflect.ValueOf(back).Field(i).IsZero() {
			t.Errorf("state.%s did not survive Marshal → Unmarshal", f.Name)
		}
	}
	if again, err := json.Marshal(back); err != nil || string(again) != string(blob) {
		t.Errorf("state does not re-encode to the same bytes (err %v)", err)
	}
}
