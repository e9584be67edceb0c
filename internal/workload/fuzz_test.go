package workload

import (
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// FuzzReadCSV hammers the reservation-trace parser with arbitrary input:
// it must never panic, and whatever it accepts must be a valid request set
// for the fixture topology/catalog.
func FuzzReadCSV(f *testing.F) {
	f.Add("user,video,start_seconds\n0,1,100\n")
	f.Add("0,0,0\n1,1,1\n")
	f.Add("")
	f.Add("user,video,start_seconds\n")
	f.Add("9999,0,0\n")
	f.Add("0,0,-1\n")
	f.Add("a,b,c\n")
	f.Add("0,0\n")
	f.Add("0,0,0,0\n")
	f.Add("\x00\xff,1,2\n")

	topo, cat := fuzzTopology(), fuzzCatalog(f)
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ReadCSV(strings.NewReader(in), topo, cat)
		if err == nil {
			checkTrace(t, set, topo, cat)
		}
	})
}

// FuzzReadJSONL is FuzzReadCSV for the JSONL trace reader, drained the way
// the load harness drains it: never a panic, and whatever it accepts is a
// valid, chronological request set.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"user":0,"video":1,"start":100}` + "\n")
	f.Add(`{"user":1,"video":0,"start":5}` + "\n\n" + `{"user":0,"video":0,"start":0}` + "\n")
	f.Add("")
	f.Add(`{"user":9999,"video":0,"start":0}`)
	f.Add(`{"user":0,"video":0,"start":-1}`)
	f.Add(`{"user":0,"video":0,"start":1e99}`)
	f.Add(`{"user":0,"video":0,"start":1}{"user":0}`)
	f.Add(`[1,2,3]`)
	f.Add("{\x00\xff}")

	topo, cat := fuzzTopology(), fuzzCatalog(f)
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ReadAllTrace(NewJSONLTraceReader(strings.NewReader(in), topo, cat))
		if err == nil {
			checkTrace(t, set, topo, cat)
		}
	})
}

// checkTrace fails t unless set is a chronological set of valid requests.
func checkTrace(t *testing.T, set Set, topo *topology.Topology, cat *media.Catalog) {
	for i, r := range set {
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			t.Fatalf("accepted unknown user %d", r.User)
		}
		if int(r.Video) < 0 || int(r.Video) >= cat.Len() {
			t.Fatalf("accepted unknown video %d", r.Video)
		}
		if r.Start < 0 {
			t.Fatalf("accepted negative start %v", r.Start)
		}
		if i > 0 && set[i-1].Start > r.Start {
			t.Fatal("output not chronologically sorted")
		}
	}
}

func fuzzTopology() *topology.Topology {
	return topology.Star(topology.GenConfig{Storages: 2, UsersPerStorage: 2, Capacity: units.GB})
}

func fuzzCatalog(f *testing.F) *media.Catalog {
	f.Helper()
	c, err := media.Uniform(5, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		f.Fatal(err)
	}
	return c
}
