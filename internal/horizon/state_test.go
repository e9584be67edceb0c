package horizon

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// The live state struct is the snapshot and replication payload, and
// encoding/json drops an unexported or untagged-and-renamed field without a
// word. After a multi-epoch run that leaves intake pending every field is
// non-zero, so each must be exported, tagged (planned excepted: the payload
// carries it as the "pending" list), and still non-zero after Marshal →
// Unmarshal; a field added later that fails this would silently vanish from
// every snapshot.
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

	blob, err := json.Marshal(wire(svc.st))
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
		if tag := f.Tag.Get("json"); f.Name != "planned" && (!f.IsExported() || tag == "" || tag == "-") {
			t.Errorf("state.%s must be exported and json-tagged (tag %q): snapshots would drop it", f.Name, tag)
		}
		if reflect.ValueOf(svc.st).Field(i).IsZero() {
			t.Errorf("state.%s is zero after the run: the test no longer exercises it", f.Name)
		}
		if reflect.ValueOf(back).Field(i).IsZero() {
			t.Errorf("state.%s did not survive Marshal → Unmarshal", f.Name)
		}
	}
	if again, err := json.Marshal(wire(back)); err != nil || string(again) != string(blob) {
		t.Errorf("state does not re-encode to the same bytes (err %v)", err)
	}
}

// The snapshot payload, the plan bodies and the replication snapshot are
// written by hand and read by encoding/json, so the struct tags stay the
// format's definition: Schedule.AppendJSON, Set.AppendJSON and
// state.appendJSON must each equal json.Marshal byte for byte — of the
// schedule's and the state's mirrors (testutil.Wire, wireState), which carry
// the service lists a scan of every delivery finds. The corners
// are the ones encoding/json treats specially — nil against empty slices and
// maps, a nil file, map keys whose decimal order is not their numeric order,
// the negative sentinels, floats at the edges of exponent form — and a seeded
// sweep covers the rest. A field added to a record type has to be added to its
// appender and to this test.
func TestStateBytesEqualMarshal(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want int
	}{
		{state{}, 9}, {wireState{}, 9}, {schedule.Schedule{}, 1}, {schedule.FileSchedule{}, 3},
		{schedule.Delivery{}, 5}, {schedule.Residency{}, 6}, {workload.Request{}, 3},
	} {
		if n := reflect.TypeOf(tc.v).NumField(); n != tc.want {
			t.Fatalf("%T has %d fields; its appender and this sweep know %d", tc.v, n, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(27))
	integer := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -1 // NoResidency, PrePlacedFeed
		case 2:
			return rng.Int63n(100)
		case 3:
			return -rng.Int63n(1 << 40)
		}
		return rng.Int63()
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-300, 1e21, 9.99e20, -1e21, 1e20, 1.7976931348623157e308, 123.456, 1}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	ints := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		xs := make([]int, 1+rng.Intn(4))
		for i := range xs {
			xs[i] = int(integer())
		}
		return xs
	}
	set := func() workload.Set {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return workload.Set{}
		}
		s := make(workload.Set, 1+rng.Intn(5))
		for i := range s {
			s[i] = workload.Request{User: topology.UserID(integer()), Video: media.VideoID(integer()), Start: simtime.Time(integer())}
		}
		return s
	}
	file := func(vid media.VideoID) *schedule.FileSchedule {
		if rng.Intn(8) == 0 {
			return nil
		}
		fs := &schedule.FileSchedule{Video: vid}
		if k := rng.Intn(4); k > 0 {
			fs.Deliveries = make([]schedule.Delivery, k-1)
		}
		for i := range fs.Deliveries {
			var route routing.Route
			for _, n := range ints() {
				route = append(route, topology.NodeID(n))
			}
			if route == nil && rng.Intn(2) == 0 {
				route = routing.Route{}
			}
			fs.Deliveries[i] = schedule.Delivery{
				Video: media.VideoID(integer()), User: topology.UserID(integer()), Start: simtime.Time(integer()),
				Route: route, SourceResidency: int(integer()),
			}
		}
		if k := rng.Intn(4); k > 0 {
			fs.Residencies = make([]schedule.Residency, k-1)
		}
		for i := range fs.Residencies {
			fs.Residencies[i] = schedule.Residency{
				Video: media.VideoID(integer()), Loc: topology.NodeID(integer()), Src: topology.NodeID(integer()),
				Load: simtime.Time(integer()), LastService: simtime.Time(integer()), FedBy: int(integer()),
			}
		}
		return fs
	}
	sched := func() *schedule.Schedule {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return &schedule.Schedule{}
		}
		s := schedule.New()
		for _, vid := range []media.VideoID{2, 10, -1, 0, 1, 100, 19, media.VideoID(integer())} {
			if rng.Intn(2) == 0 {
				s.Files[vid] = file(vid)
			}
		}
		return s
	}

	buf := []byte("left over from the state before")
	for i := 0; i < 3000; i++ {
		st := state{
			Horizon: simtime.Time(integer()), Epoch: int(integer()),
			Clock: simtime.Time(integer()), EpochClock: simtime.Time(integer()),
			Cost: units.Money(float()), Committed: sched(),
			Accepted: set(), PendingBytes: float(),
		}
		st.planned = rng.Intn(len(st.Accepted) + 1)
		for _, enc := range []struct {
			name   string
			v      any
			append func([]byte) ([]byte, error)
		}{
			{"Schedule.AppendJSON", testutil.Wire(st.Committed), func(b []byte) ([]byte, error) { return st.Committed.AppendJSON(b), nil }},
			{"Set.AppendJSON", st.Accepted, func(b []byte) ([]byte, error) { return st.Accepted.AppendJSON(b), nil }},
			{"state.appendJSON", wire(st), st.appendJSON},
		} {
			want, err := json.Marshal(enc.v)
			if err != nil {
				t.Fatal(err)
			}
			if buf, err = enc.append(buf[:0]); err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("%s of %+v (err %v):\n appended     %s\n json.Marshal %s", enc.name, enc.v, err, buf, want)
			}
		}
	}
}

// A state JSON cannot carry is refused by the writer, as json.Marshal refused
// it: the snapshot is counted as failed, no file is written and the journal
// keeps its records.
func TestSnapshotOfAnUnencodableStateFails(t *testing.T) {
	r, reqs := sharingRig(t)
	dir := t.TempDir()
	svc, err := Recover(dir, r.Model, Config{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	driveEpochs(t, svc, reqs[:10], func(*api.EpochResult) {})

	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		svc.mu.Lock()
		svc.cfg.SnapshotEvery = 1
		svc.st.Cost = units.Money(bad)
		if _, err := svc.st.appendJSON(nil); err == nil {
			t.Errorf("a cost of %v encodes", bad)
		}
		svc.maybeSnapshotLocked()
		failures := svc.recovery.SnapshotFailures
		svc.mu.Unlock()
		if failures != i+1 {
			t.Errorf("after a cost of %v, %d snapshot failures counted, want %d", bad, failures, i+1)
		}
	}
	if _, _, ok, err := wal.ReadSnapshot(dir); ok || err != nil {
		t.Errorf("a snapshot was written (ok %v, err %v)", ok, err)
	}
	recs, _, err := wal.ReadLogAfter(filepath.Join(dir, LogName), 0)
	if err != nil || len(recs) != 12 {
		t.Errorf("the journal holds %d records (err %v), want the 12 it was given", len(recs), err)
	}
}
