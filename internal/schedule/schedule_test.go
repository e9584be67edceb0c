package schedule

import (
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
		{Video: 0, Loc: is1, Src: vw, Load: 0, LastService: 10800, FedBy: 0, Services: []int{1, 2}},
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

func TestValidateRejections(t *testing.T) {
	topo, cat := fixture(t)
	vw := topology.NodeID(0)
	is1 := topology.NodeID(1)

	mutations := []struct {
		name string
		mut  func(s *Schedule, reqs *workload.Set)
		want string
	}{
		{"unserved request", func(s *Schedule, reqs *workload.Set) {
			*reqs = append(*reqs, workload.Request{User: 0, Video: 1, Start: 99})
		}, "not served"},
		{"spurious delivery", func(s *Schedule, reqs *workload.Set) {
			fs := s.File(0)
			fs.Deliveries = append(fs.Deliveries, Delivery{
				Video: 0, User: 0, Start: 7777, Route: routing.Route{vw, is1}, SourceResidency: NoResidency,
			})
		}, "matches no request"},
		{"empty route", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = nil
		}, "empty route"},
		{"negative start", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Start = -5
			(*reqs)[0].Start = -5
		}, "negative time"},
		{"non-adjacent hop", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{vw, topology.NodeID(2)}
		}, "not a link"},
		{"wrong destination", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].Route = routing.Route{is1}
		}, "local to"},
		{"warehouse-claim from storage", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = NoResidency
		}, "warehouse supply"},
		{"residency index out of range", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = 5
		}, "references residency"},
		{"service before load", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Load = 10
			s.File(0).Deliveries[0].Start = 10
			(*reqs)[0].Start = 10
			s.File(0).Deliveries[1].Start = 5
			(*reqs)[1].Start = 5
		}, "outside residency window"},
		{"load after last service", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Load = 99999
		}, ""},
		{"residency at warehouse", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Loc = vw
		}, ""},
		{"bad feed index", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].FedBy = 9
		}, "fed by"},
		{"feed start mismatch", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].FedBy = 1
		}, ""},
		{"off-route residency", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Loc = topology.NodeID(2)
		}, ""},
		{"stale last service", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].LastService = 20000
		}, ""},
		{"orphan service claim", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Services = []int{1}
			// delivery 2 still points at residency 0 but is unlisted.
		}, ""},
		{"duplicate service entry", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Residencies[0].Services = []int{1, 1, 2}
		}, "twice"},
		{"service list references foreign delivery", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[1].SourceResidency = NoResidency
			s.File(0).Deliveries[1].Route = routing.Route{vw, is1, topology.NodeID(2)}
		}, ""},
		// What only a decoder can produce: Validate must answer, not index.
		{"nil file", func(s *Schedule, reqs *workload.Set) {
			s.Files[1] = nil
		}, "holds no schedule"},
		{"route from a node past the topology", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{9999, is1}
		}, "unknown node 9999"},
		{"route from a negative node", func(s *Schedule, reqs *workload.Set) {
			s.File(0).Deliveries[0].Route = routing.Route{-3, is1}
		}, "unknown node -3"},
		{"reader-less residency at a node past the topology", func(s *Schedule, reqs *workload.Set) {
			fs := s.File(0)
			fs.Residencies = append(fs.Residencies,
				Residency{Video: 0, Loc: 9999, Src: is1, Load: 5400, LastService: 5400, FedBy: 1})
		}, "non-storage node 9999"},
	}
	for _, mcase := range mutations {
		t.Run(mcase.name, func(t *testing.T) {
			s, reqs := validSchedule(topo)
			mcase.mut(s, &reqs)
			err := s.Validate(topo, cat, reqs)
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

// The reader checks share one index per file (validateFile): these pin the
// message and the order of each branch that reads it. twoCopies adds a
// second copy at IS2, fed by delivery 1 and read by nobody.
func TestValidateReaderIndex(t *testing.T) {
	topo, cat := fixture(t)
	is1, is2 := topology.NodeID(1), topology.NodeID(2)
	twoCopies := func(s *Schedule) {
		fs := s.File(0)
		fs.Residencies = append(fs.Residencies,
			Residency{Video: 0, Loc: is2, Src: is1, Load: 5400, LastService: 5400, FedBy: 1})
	}
	cases := []struct {
		name string
		mut  func(s *Schedule)
		want string
	}{
		{"unlisted reader, span intact", func(s *Schedule) {
			s.File(0).Residencies[0].Services = []int{2}
		}, "delivery 1 draws from residency 0 but is not in its service list"},
		{"unlisted reader behind a stale span reports the span", func(s *Schedule) {
			s.File(0).Residencies[0].Services = []int{1}
		}, "residency 0 LastService 03:00:00, but latest service starts at 01:30:00"},
		{"duplicate after a distinct entry", func(s *Schedule) {
			s.File(0).Residencies[0].Services = []int{1, 2, 2}
		}, "residency 0 lists service 2 twice"},
		{"second copy claims the first copy's reader", func(s *Schedule) {
			twoCopies(s)
			s.File(0).Residencies[1].Services = []int{1}
		}, "residency 1 lists service 1 which draws from 0"},
		{"reader listed by the wrong copy only", func(s *Schedule) {
			twoCopies(s)
			s.File(0).Residencies[0].Services = []int{2}
			s.File(0).Residencies[1].Services = []int{1}
		}, "delivery 1 draws from residency 0 but is not in its service list"},
		{"claiming a warehouse-fed delivery", func(s *Schedule) {
			s.File(0).Residencies[0].Services = []int{0, 1, 2}
		}, "residency 0 lists service 0 which draws from -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, reqs := validSchedule(topo)
			tc.mut(s)
			err := s.Validate(topo, cat, reqs)
			if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want ... %s", err, tc.want)
			}
		})
	}

	// A second file is checked on the same index, reset in between.
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
		t.Fatalf("two files on one index: %v", err)
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
	c.File(0).Residencies[0].Services[0] = 99
	c.File(0).Deliveries[0].Route[0] = 99
	if s.File(0).Deliveries[0].Start == 999 {
		t.Error("Clone shares deliveries")
	}
	if s.File(0).Residencies[0].Services[0] == 99 {
		t.Error("Clone shares service lists")
	}
	if s.File(0).Deliveries[0].Route[0] == 99 {
		t.Error("Clone shares routes")
	}
}
