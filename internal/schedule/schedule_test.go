package schedule

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// fixture: VW(0) - IS1(1) - IS2(2); one user at IS1, two at IS2.
func fixture(t *testing.T) (*topology.Topology, *media.Catalog) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(2, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	return topo, cat
}

const p90 = 90 * simtime.Minute

func validSchedule(topo *topology.Topology) (*Schedule, workload.Set) {
	vw := topology.NodeID(0)
	is1 := topology.NodeID(1)
	is2 := topology.NodeID(2)
	reqs := workload.Set{
		{User: 0, Video: 0, Start: 0},
		{User: 1, Video: 0, Start: 5400},
		{User: 2, Video: 0, Start: 10800},
	}
	fs := &FileSchedule{Video: 0}
	fs.Deliveries = []Delivery{
		{Video: 0, User: 0, Start: 0, Route: routing.Route{vw, is1}, SourceResidency: NoResidency},
		{Video: 0, User: 1, Start: 5400, Route: routing.Route{is1, is2}, SourceResidency: 0},
		{Video: 0, User: 2, Start: 10800, Route: routing.Route{is1, is2}, SourceResidency: 0},
	}
	fs.Residencies = []Residency{
		{Video: 0, Loc: is1, Src: vw, Load: 0, LastService: 10800, FedBy: 0},
	}
	s := New()
	s.Put(fs)
	return s, reqs
}

func TestValidateAccepts(t *testing.T) {
	topo, cat := fixture(t)
	s, reqs := validSchedule(topo)
	if err := s.Validate(topo, cat, reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// withServices returns the encoding blob with the service list of its j-th
// residency record replaced by list.
func withServices(blob []byte, j int, list string) []byte {
	key := []byte(`"services":`)
	at := 0
	for ; j >= 0; j-- {
		at += bytes.Index(blob[at:], key) + len(key)
	}
	end := at + bytes.IndexByte(blob[at:], '}')
	return slices.Concat(blob[:at], []byte(list), blob[end:])
}

// decodeValidate takes s the way a schedule from outside the process comes
// in: encoded, residency 0's service list replaced by services unless that is
// empty, decoded, and validated.
func decodeValidate(topo *topology.Topology, cat *media.Catalog, s *Schedule, services string, reqs workload.Set) error {
	blob := s.AppendJSON(nil)
	if services != "" {
		blob = withServices(blob, 0, services)
	}
	var in *Schedule
	if err := json.Unmarshal(blob, &in); err != nil {
		return err
	}
	return in.Validate(topo, cat, reqs)
}

// Every mutation is made to a schedule that then comes in from outside: an
// inconsistent service list is refused by the decoder, everything else by
// Validate.
func TestValidateRejections(t *testing.T) {
	topo, cat := fixture(t)
	vw := topology.NodeID(0)
	is1 := topology.NodeID(1)

	mutations := []struct {
		name     string
		mut      func(s *Schedule, reqs *workload.Set)
		want     string
		services string // residency 0's list as it comes in, when not its readers
	}{
		{"unserved request", func(s *Schedule, reqs *workload.Set) {
			*reqs = append(*reqs, workload.Request{User: 0, Video: 1, Start: 99})
		}, "not served", ""},
		{"spurious delivery", func(s *Schedule, reqs *workload.Set) {
			fs := s.File(0)
			fs.Deliveries = append(fs.Deliveries, Delivery{
				Video: 0, User: 0, Start: 7777, Route: routing.Route{vw, is1}, SourceResidency: NoResidency,
			})
		}, "matches no request", ""},
		{"empty route", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = nil
		}, "empty route", ""},
		{"negative start", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Start = -5
			(*reqs)[0].Start = -5
		}, "negative time", ""},
		{"non-adjacent hop", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{vw, topology.NodeID(2)}
		}, "not a link", ""},
		{"wrong destination", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].Route = routing.Route{is1}
		}, "local to", ""},
		{"warehouse-claim from storage", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = NoResidency
		}, "warehouse supply", ""},
		{"residency index out of range", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = 5
		}, "references residency", ""},
		{"service before load", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Load = 10
			s.File(0).Deliveries[0].Start = 10
			(*reqs)[0].Start = 10
			s.File(0).Deliveries[1].Start = 5
			(*reqs)[1].Start = 5
		}, "outside residency window", ""},
		{"load after last service", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Load = 99999
		}, "", ""},
		{"residency at warehouse", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Loc = vw
		}, "", ""},
		{"bad feed index", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].FedBy = 9
		}, "fed by", ""},
		{"feed start mismatch", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].FedBy = 1
		}, "", ""},
		{"off-route residency", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Loc = topology.NodeID(2)
		}, "", ""},
		{"stale last service", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].LastService = 20000
		}, "", ""},
		// Delivery 2 still points at residency 0 but is unlisted.
		{"orphan service claim", func(s *Schedule, reqs *workload.Set) {}, "residency 0 lists services [1], but deliveries [1 2] draw from it", "[1]"},
		{"duplicate service entry", func(s *Schedule, reqs *workload.Set) {}, "residency 0 lists services [1 1 2], but deliveries [1 2] draw from it", "[1,1,2]"},
		{"service list references foreign delivery", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = NoResidency
			s.File(0).Deliveries[1].Route = routing.Route{vw, is1, topology.NodeID(2)}
		}, "residency 0 lists services [1 2], but deliveries [2] draw from it", "[1,2]"},
		{"reader lost, span kept", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[2].SourceResidency = NoResidency
			s.File(0).Deliveries[2].Route = routing.Route{vw, is1, topology.NodeID(2)}
		}, "residency 0 LastService 03:00:00, but latest service starts at 01:30:00", ""},
		// What only a decoder can produce: Validate must answer, not index.
		{"nil file", func(s *Schedule, reqs *workload.Set) {
			s.Files[1] = nil
		}, "holds no schedule", ""},
		{"route from a node past the topology", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{9999, is1}
		}, "unknown node 9999", ""},
		{"route from a negative node", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{-3, is1}
		}, "unknown node -3", ""},
		{"reader-less residency at a node past the topology", func(s *Schedule, reqs *workload.Set) {
			fs := s.File(0)
			fs.Residencies = append(fs.Residencies,
				Residency{Video: 0, Loc: 9999, Src: is1, Load: 5400, LastService: 5400, FedBy: 1})
		}, "non-storage node 9999", ""},
	}
	for _, mcase := range mutations {
		t.Run(mcase.name, func(t *testing.T) {
			s, reqs := validSchedule(topo)
			mcase.mut(s, &reqs)
			err := decodeValidate(topo, cat, s, mcase.services, reqs)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if mcase.want != "" && !strings.Contains(err.Error(), mcase.want) {
				t.Errorf("error %q does not contain %q", err, mcase.want)
			}
		})
	}
}

// Validate is its two halves in order: the structural one knows nothing of
// requests, the coverage one nothing of structure.
func TestValidateHalves(t *testing.T) {
	topo, cat := fixture(t)
	s, reqs := validSchedule(topo)
	if err := s.ValidateStructure(topo, cat); err != nil {
		t.Fatalf("ValidateStructure: %v", err)
	}
	if err := s.Serves(reqs); err != nil {
		t.Fatalf("Serves: %v", err)
	}
	short := reqs[:2]
	if err := s.Serves(short); err == nil || !strings.Contains(err.Error(), "matches no request") {
		t.Errorf("Serves(two of three requests) = %v", err)
	}
	// Both broken: the structural violation is the one reported.
	s.File(0).Deliveries[0].Route = nil
	if err := s.Validate(topo, cat, short); err == nil || !strings.Contains(err.Error(), "empty route") {
		t.Errorf("Validate = %v, want the structural violation first", err)
	}
}

// Who reads a copy is checked at two doors: decoding refuses a service list
// that is not exactly the deliveries drawing from the copy, and
// ValidateStructure a span that does not end at the latest of them, working
// in one memory per file. These pin the message of each refusal. twoCopies
// adds a second copy at IS2, fed by delivery 1 and read by nobody; the lists
// are residency 0's and 1's as they come in.
func TestValidateReaderIndex(t *testing.T) {
	topo, cat := fixture(t)
	vw, is1, is2 := topology.NodeID(0), topology.NodeID(1), topology.NodeID(2)
	twoCopies := func(s *Schedule) {
		fs := s.File(0)
		fs.Residencies = append(fs.Residencies,
			Residency{Video: 0, Loc: is2, Src: is1, Load: 5400, LastService: 5400, FedBy: 1})
	}
	cases := []struct {
		name  string
		mut   func(s *Schedule)
		lists []string
		want  string
	}{
		{"unlisted reader, span intact", nil, []string{"[2]"},
			"residency 0 lists services [2], but deliveries [1 2] draw from it"},
		{"unlisted reader behind a stale span reports the span", func(s *Schedule) {
			s.File(0).Deliveries[2].SourceResidency = NoResidency
			s.File(0).Deliveries[2].Route = routing.Route{vw, is1, is2}
		}, []string{"[1]"}, "residency 0 LastService 03:00:00, but latest service starts at 01:30:00"},
		{"duplicate after a distinct entry", nil, []string{"[1,2,2]"}, "residency 0 lists services [1 2 2], but deliveries [1 2] draw from it"},
		{"second copy claims the first copy's reader", twoCopies, []string{"[1,2]", "[1]"},
			"residency 1 lists services [1], but deliveries [] draw from it"},
		{"reader listed by the wrong copy only", twoCopies, []string{"[2]", "[1]"},
			"residency 0 lists services [2], but deliveries [1 2] draw from it"},
		{"claiming a warehouse-fed delivery", nil, []string{"[0,1,2]"}, "residency 0 lists services [0 1 2], but deliveries [1 2] draw from it"},
		{"unknown service", nil, []string{"[1,2,3]"}, "residency 0 lists services [1 2 3], but deliveries [1 2] draw from it"},
		{"negative service", nil, []string{"[-1,1,2]"}, "residency 0 lists services [-1 1 2], but deliveries [1 2] draw from it"},
		{"unlisted last reader", nil, []string{"[1]"}, "residency 0 lists services [1], but deliveries [1 2] draw from it"},
		// Any order of the readers comes in, and an empty list null or [].
		{"readers out of order", twoCopies, []string{"[2,1]", "[]"}, ""},
		{"reader-less copy listed null", twoCopies, []string{"[1,2]", "null"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, reqs := validSchedule(topo)
			if tc.mut != nil {
				tc.mut(s)
			}
			blob := s.AppendJSON(nil)
			for j, l := range tc.lists {
				blob = withServices(blob, j, l)
			}
			var in *Schedule
			err := json.Unmarshal(blob, &in)
			if err == nil {
				err = in.Validate(topo, cat, reqs)
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("%s: %v", blob, err)
				}
				if got, want := in.AppendJSON(nil), s.AppendJSON(nil); !bytes.Equal(got, want) {
					t.Fatalf("%s comes in, and encodes as\n%s, not\n%s", blob, got, want)
				}
			} else if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("%s: decode and Validate = %v, want ... %s", blob, err, tc.want)
			}
		})
	}

	// A second file is checked in the same memory, refilled in between.
	s, reqs := validSchedule(topo)
	twoCopies(s)
	other := s.File(0).Clone()
	other.Video = 1
	for i := range other.Deliveries {
		other.Deliveries[i].Video = 1
	}
	for j := range other.Residencies {
		other.Residencies[j].Video = 1
	}
	s.Put(other)
	for _, r := range reqs[:3] {
		r.Video = 1
		reqs = append(reqs, r)
	}
	if err := s.Validate(topo, cat, reqs); err != nil {
		t.Fatalf("two files in one memory: %v", err)
	}
}

func TestValidateUnknownVideo(t *testing.T) {
	topo, cat := fixture(t)
	s := New()
	s.Put(&FileSchedule{Video: 99})
	if err := s.Validate(topo, cat, nil); err == nil {
		t.Error("expected error for unknown video")
	}
	s = New()
	s.Files[3] = &FileSchedule{Video: 0}
	if err := s.Validate(topo, cat, nil); err == nil {
		t.Error("expected error for mismatched map key")
	}
}

func TestResidencyGeometry(t *testing.T) {
	c := Residency{Video: 0, Loc: 1, Src: 0, Load: 1000, LastService: 1000 + simtime.Time(p90)}
	if !c.Long(p90) {
		t.Error("Δ=P must be long")
	}
	if c.Gamma(p90) != 1 {
		t.Error("long gamma must be 1")
	}
	short := Residency{Load: 0, LastService: simtime.Time(p90 / 3)}
	if short.Long(p90) {
		t.Error("Δ<P must be short")
	}
	if g := short.Gamma(p90); g < 0.33 || g > 0.34 {
		t.Errorf("short gamma = %g, want 1/3", g)
	}
	sup := c.Support(p90)
	if sup.Start != 1000 || sup.End != c.LastService.Add(p90) {
		t.Errorf("Support = %v", sup)
	}
	if c.Gamma(0) != 0 {
		t.Error("zero playback gamma must be 0")
	}
}

func TestSpaceAtProfile(t *testing.T) {
	size := 1000.0
	c := Residency{Load: 100, LastService: 100 + simtime.Time(2*p90)} // long
	if got := c.SpaceAt(50, size, p90); got != 0 {
		t.Errorf("before load: %g", got)
	}
	if got := c.SpaceAt(100, size, p90); got != size {
		t.Errorf("at load: %g, want full size (long residency reserves all)", got)
	}
	if got := c.SpaceAt(c.LastService, size, p90); got != size {
		t.Errorf("at last service: %g", got)
	}
	mid := c.LastService.Add(p90 / 2)
	if got := c.SpaceAt(mid, size, p90); got != size/2 {
		t.Errorf("mid-decay: %g, want %g", got, size/2)
	}
	if got := c.SpaceAt(c.LastService.Add(p90), size, p90); got != 0 {
		t.Errorf("after decay: %g", got)
	}
	// Short residency peaks at γ·size.
	s := Residency{Load: 0, LastService: simtime.Time(p90 / 2)}
	if got := s.SpaceAt(10, size, p90); got != size/2 {
		t.Errorf("short plateau: %g, want %g", got, size/2)
	}
}

func TestScheduleAccessors(t *testing.T) {
	topo, _ := fixture(t)
	s, _ := validSchedule(topo)
	if s.NumDeliveries() != 3 || s.NumResidencies() != 1 {
		t.Error("counters wrong")
	}
	if s.File(0) == nil || s.File(1) != nil {
		t.Error("File accessor wrong")
	}
	ids := s.VideoIDs()
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("VideoIDs = %v", ids)
	}
	s.Put(&FileSchedule{Video: 5})
	s.Put(&FileSchedule{Video: 2})
	ids = s.VideoIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 5 {
		t.Errorf("VideoIDs = %v, want sorted", ids)
	}
}

func TestCloneIndependence(t *testing.T) {
	topo, _ := fixture(t)
	s, _ := validSchedule(topo)
	c := s.Clone()
	c.File(0).Deliveries[0].Start = 999
	c.File(0).Residencies[0].Load = 99
	c.File(0).Deliveries[0].Route[0] = 99
	if s.File(0).Deliveries[0].Start == 999 {
		t.Error("Clone shares deliveries")
	}
	if s.File(0).Residencies[0].Load == 99 {
		t.Error("Clone shares residencies")
	}
	if s.File(0).Deliveries[0].Route[0] == 99 {
		t.Error("Clone shares routes")
	}
}

// Readers is the service list the encoding carries, one per residency; a
// delivery drawing from a residency that does not exist reads none.
func TestReaders(t *testing.T) {
	topo, _ := fixture(t)
	s, _ := validSchedule(topo)
	fs := s.File(0)
	fs.Residencies = append(fs.Residencies,
		Residency{Video: 0, Loc: 2, Src: 1, Load: 5400, LastService: 5400, FedBy: 1})
	fs.Deliveries = append(fs.Deliveries, Delivery{Video: 0, User: 1, Start: 10800, Route: routing.Route{2}, SourceResidency: 9})
	got := fs.Readers()
	if len(got) != 2 || !slices.Equal(got[0], []int{1, 2}) || len(got[1]) != 0 {
		t.Fatalf("Readers = %v, want [[1 2] []]", got)
	}
}
