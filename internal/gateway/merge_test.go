package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/testutil"
	"github.com/vodsim/vsp/internal/workload"
)

// mergeSchedules is the merge the gateway's plan is defined by, on decoded
// schedules: per video, in part order, the first part's file cloned and the
// later parts' records appended with their index-valued references rebased
// by the receiving file's offsets, sentinels left alone. The gateway merges
// the shards' encodings instead (schedule.AppendMerged); this is its oracle.
// It works on the encoding's mirror, which stores every service list as the
// parts spell it, so encoding/json writes the merge without the schedule
// encoder's help: the clone keeps an empty route or service list null (and
// makes both record lists arrays), and an appended empty service list is [].
func mergeSchedules(parts ...*testutil.WireSchedule) *testutil.WireSchedule {
	out := &testutil.WireSchedule{Files: make(map[media.VideoID]*testutil.WireFile)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, fs := range p.Files {
			cur := out.Files[fs.Video]
			first := cur == nil
			if first {
				cur = &testutil.WireFile{Video: fs.Video, Deliveries: []schedule.Delivery{}, Residencies: []testutil.WireResidency{}}
				out.Files[fs.Video] = cur
			}
			dOff, rOff := len(cur.Deliveries), len(cur.Residencies)
			for _, d := range fs.Deliveries {
				d.Route = d.Route.Clone()
				if d.SourceResidency != schedule.NoResidency {
					d.SourceResidency += rOff
				}
				cur.Deliveries = append(cur.Deliveries, d)
			}
			for _, c := range fs.Residencies {
				var services []int
				if !first {
					services = make([]int, 0, len(c.Services))
				}
				for _, s := range c.Services {
					services = append(services, s+dOff)
				}
				c.Services = services
				if c.FedBy != schedule.PrePlacedFeed {
					c.FedBy += dOff
				}
				cur.Residencies = append(cur.Residencies, c)
			}
		}
	}
	return out
}

// mergeEncoded is schedule.AppendMerged over the parts' encodings, decoded.
func mergeEncoded(t *testing.T, parts ...*schedule.Schedule) (*schedule.Schedule, []byte) {
	t.Helper()
	encs := make([]*schedule.Encoding, len(parts))
	for i, p := range parts {
		var err error
		if encs[i], err = schedule.NewEncoding(p.AppendJSON(nil)); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	blob := schedule.AppendMerged(nil, encs...)
	var out *schedule.Schedule
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("the merge does not decode: %v\n%s", err, blob)
	}
	return out, blob
}

// Hand-built parts sharing one video: the merge must concatenate record
// lists and rebase every index-valued cross-reference by the receiving
// file's offsets, leaving the sentinels alone.
func TestMergeSchedulesRebasesIndexes(t *testing.T) {
	a := schedule.New()
	a.Put(&schedule.FileSchedule{
		Video: 7,
		Deliveries: []schedule.Delivery{
			{Video: 7, User: 0, SourceResidency: schedule.NoResidency},
			{Video: 7, User: 1, SourceResidency: 0},
		},
		Residencies: []schedule.Residency{
			{Video: 7, FedBy: 0},
		},
	})
	a.Put(&schedule.FileSchedule{
		Video: 9,
		Deliveries: []schedule.Delivery{
			{Video: 9, User: 2, SourceResidency: schedule.NoResidency},
		},
	})

	b := schedule.New()
	b.Put(&schedule.FileSchedule{
		Video: 7,
		Deliveries: []schedule.Delivery{
			{Video: 7, User: 3, SourceResidency: schedule.NoResidency},
			{Video: 7, User: 4, SourceResidency: 0},
			{Video: 7, User: 5, SourceResidency: 0},
		},
		Residencies: []schedule.Residency{
			{Video: 7, FedBy: schedule.PrePlacedFeed},
			{Video: 7, FedBy: 1},
		},
	})

	merged, blob := mergeEncoded(t, a, b)
	if want, err := json.Marshal(mergeSchedules(testutil.Wire(a), testutil.Wire(b))); err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("the merge is\n %s\nthe oracle's\n %s (%v)", blob, want, err)
	}

	fs := merged.File(7)
	if fs == nil {
		t.Fatal("video 7 missing from merge")
	}
	if len(fs.Deliveries) != 5 || len(fs.Residencies) != 3 {
		t.Fatalf("video 7 merged to %d deliveries / %d residencies, want 5 / 3",
			len(fs.Deliveries), len(fs.Residencies))
	}
	// Part A's records keep their indices; part B's shift by (2, 1).
	if got := fs.Deliveries[2].SourceResidency; got != schedule.NoResidency {
		t.Fatalf("b.Deliveries[0].SourceResidency = %d after merge, want NoResidency sentinel", got)
	}
	if got := fs.Deliveries[3].SourceResidency; got != 1 {
		t.Fatalf("b.Deliveries[1].SourceResidency = %d after merge, want 1 (0 + residency offset)", got)
	}
	rc, readers := fs.Residencies[1], fs.Readers()
	if rc.FedBy != schedule.PrePlacedFeed {
		t.Fatalf("pre-placed FedBy sentinel rewritten to %d", rc.FedBy)
	}
	if !slices.Equal(readers[1], []int{3, 4}) {
		t.Fatalf("b residency services = %v after merge, want [3 4]", readers[1])
	}
	if fed := fs.Residencies[2].FedBy; fed != 3 {
		t.Fatalf("b residency fed by delivery 1 is fed by %d after merge, want 3", fed)
	}
	if !slices.Equal(readers[0], []int{1}) || fs.Residencies[0].FedBy != 0 {
		t.Fatal("part A's residency cross-references were disturbed")
	}
	if merged.File(9) == nil || len(merged.File(9).Deliveries) != 1 {
		t.Fatal("video 9 (present in one part only) not carried over")
	}
	// The empty lists come out as the clone and the appends leave them: an
	// empty route null, the first part's residency list an array, a later
	// part's empty service list [].
	for _, want := range []string{`"route":null`, `"9":{"video":9,"deliveries":[{`, `],"residencies":[]}`, `"fed_by":3,"services":[]}`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Fatalf("the merge holds no %s:\n%s", want, blob)
		}
	}
}

// rollingEncodings are the plans three rolling-horizon shards commit as they
// take turns at a trace, one triple for every twentieth broadcast close: at
// 50 GB and 80 reservations a shard every shard caches, so the later shards'
// references need rebasing.
func rollingEncodings(t testing.TB) [][3][]byte {
	t.Helper()
	r, err := testutil.Build(testutil.Params{
		Storages: 6, UsersPerStorage: 4, Titles: 15, WindowHours: 8,
		CapacityGB: 50, RequestsPerUser: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.Set(nil), r.Requests...)
	workload.SortChronological(reqs)
	var shards [3]*horizon.Service
	for k := range shards {
		shards[k] = horizon.New(r.Model, horizon.Config{})
	}
	var out [][3][]byte
	for i, q := range reqs {
		if _, err := shards[i%3].Submit(q.Start, q); err != nil {
			t.Fatal(err)
		}
		if i%3 != 2 {
			continue
		}
		keep := (i/3)%20 == 0 || i == len(reqs)-1
		var plans [3][]byte
		for k, sh := range shards {
			if _, err := sh.Advance(context.Background(), simtime.Max(sh.Horizon(), q.Start.Add(-simtime.Hour))); err != nil {
				t.Fatal(err)
			}
			plans[k] = sh.Plan().Schedule.AppendJSON(nil)
		}
		if keep {
			out = append(out, plans)
		}
	}
	return out
}

// FuzzMergeEncodings holds schedule.AppendMerged to the decode–merge–encode
// it replaces, over one to three parts: whenever every part is accepted by
// schedule.NewEncoding, the merge is json.Marshal(mergeSchedules(parts
// decoded into the mirror)), byte for byte. Inputs that decode to a schedule whose files are
// non-nil and keyed by their own video are also re-encoded by AppendJSON,
// which NewEncoding must always accept, and merged again in that form.
func FuzzMergeEncodings(f *testing.F) {
	for i, p := range rollingEncodings(f) {
		f.Add(p[0], p[1], p[2], uint8(i))
	}
	f.Add([]byte(`null`), []byte(`{"files":null}`), []byte(`{"files":{}}`), uint8(2))
	f.Add([]byte(`{"files":{"10":{"video":10,"deliveries":[{"video":10,"user":0,"start":5,"route":[],"source_residency":-1}],"residencies":null}}}`),
		[]byte(`{"files":{"10":{"video":10,"deliveries":null,"residencies":[{"video":10,"loc":1,"src":0,"load":0,"last_service":0,"fed_by":-1,"services":null}]},"2":{"video":2,"deliveries":[],"residencies":[]}}}`),
		[]byte(`{"files":{"-1":{"video":-1,"deliveries":[{"video":3,"user":9223372036854775807,"start":-9223372036854775808,"route":null,"source_residency":9223372036854775807}],"residencies":[]}}}`),
		uint8(2))
	f.Add([]byte(`{"files":{"5":null}}`), []byte(`{"files":{"5":{"video":6,"deliveries":[],"residencies":[]}}}`), []byte(`{"files": {}}`), uint8(0))
	f.Add([]byte(`{"files":{"2":{"video":2,"deliveries":[],"residencies":[]},"10":{"video":10,"deliveries":[],"residencies":[]}}}`), []byte(`null`), []byte(`null`), uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c []byte, n uint8) {
		inputs := [][]byte{a, b, c}[:1+n%3]
		check := func(what string, raws [][]byte) {
			encs := make([]*schedule.Encoding, len(raws))
			parts := make([]*testutil.WireSchedule, len(raws))
			for i, raw := range raws {
				var err error
				if encs[i], err = schedule.NewEncoding(raw); err != nil {
					return
				}
				if err := json.Unmarshal(raw, &parts[i]); err != nil {
					t.Fatalf("%s: NewEncoding accepts %q, which does not decode: %v", what, raw, err)
				}
			}
			want, err := json.Marshal(mergeSchedules(parts...))
			if err != nil {
				t.Fatal(err)
			}
			if got := schedule.AppendMerged(nil, encs...); !bytes.Equal(got, want) {
				t.Fatalf("%s: the merge of %q is\n %s\nthe oracle's\n %s", what, raws, got, want)
			}
		}
		check("the inputs", inputs)
		canonical := make([][]byte, 0, len(inputs))
		for _, raw := range inputs {
			var s *schedule.Schedule
			if json.Unmarshal(raw, &s) != nil || !keyedByVideo(s) {
				return
			}
			enc := s.AppendJSON(nil)
			if _, err := schedule.NewEncoding(enc); err != nil {
				t.Fatalf("NewEncoding refuses AppendJSON's %s: %v", enc, err)
			}
			canonical = append(canonical, enc)
		}
		check("their encodings", canonical)
	})
}

// keyedByVideo reports whether every file of s is non-nil and under its own
// video, as every schedule the solver commits is.
func keyedByVideo(s *schedule.Schedule) bool {
	if s == nil {
		return true
	}
	for vid, fs := range s.Files {
		if fs == nil || fs.Video != vid {
			return false
		}
	}
	return true
}
