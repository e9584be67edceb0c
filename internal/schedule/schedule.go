// Package schedule defines the service schedule of the paper (§2.1): the
// complete instruction set telling the warehouse, the intermediate storages
// and the network how a batch of requests will be serviced.
//
// A schedule for one file consists of
//
//   - Deliveries (the paper's network transfer information d_i): one stream
//     per request, flowing from a supply node (the warehouse or a caching
//     storage) to the requesting user's local storage, starting at the
//     request's start time. A delivery whose route has zero hops is a local
//     cache hit and uses no network.
//
//   - Residencies (the paper's file residency information c_i): temporary
//     copies at an intermediate storage, filled by copying data blocks from
//     an on-going delivery stream. A residency records the caching interval
//     [Load, LastService] — Load is when the copy starts being written,
//     LastService is the start time of the last service reading from it —
//     plus the feeding delivery. The deliveries it supplies, the paper's
//     service list, are those whose SourceResidency names it: AppendJSON
//     writes the list and decoding checks it.
package schedule

import (
	"fmt"
	"slices"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/workload"
)

// NoResidency marks a delivery supplied straight from the warehouse.
const NoResidency = -1

// PrePlacedFeed marks a residency that is not filled from a request's
// stream but pre-placed by a bulk transfer from the warehouse before the
// cycle (strategic replication — the companion work the paper cites as
// [16]). Its [Load, LastService] window is the planned holding span chosen
// by the placement planner; services must fall inside it but do not extend
// it, and the copy is retained (and charged) for the whole span even if
// nothing reads it.
const PrePlacedFeed = -1

// Delivery is one network transfer record (d_i): file Video streams along
// Route starting at Start to serve User. SourceResidency is the index (in
// the owning FileSchedule) of the cached copy supplying the stream, or
// NoResidency when the warehouse supplies it.
type Delivery struct {
	Video           media.VideoID   `json:"video"`
	User            topology.UserID `json:"user"`
	Start           simtime.Time    `json:"start"`
	Route           routing.Route   `json:"route"`
	SourceResidency int             `json:"source_residency"`
}

// Dst returns the destination storage (the served user's local IS).
func (d Delivery) Dst() topology.NodeID { return d.Route.Dst() }

// Src returns the supply node the stream originates from.
func (d Delivery) Src() topology.NodeID { return d.Route.Src() }

// Residency is one file residency record (c_i): a temporary copy of Video
// at storage Loc, written from a stream originating at Src.
type Residency struct {
	Video       media.VideoID   `json:"video"`
	Loc         topology.NodeID `json:"loc"`
	Src         topology.NodeID `json:"src"`
	Load        simtime.Time    `json:"load"`         // t_s: copy starts being written
	LastService simtime.Time    `json:"last_service"` // t_f: start of the last service
	FedBy       int             `json:"fed_by"`       // delivery index writing the copy
}

// Span returns the caching interval length Δ = LastService − Load.
func (c Residency) Span() simtime.Duration { return c.LastService.Sub(c.Load) }

// Long reports whether the residency is of the long type (Δ ≥ P, paper
// §2.2.1); otherwise it is short.
func (c Residency) Long(playback simtime.Duration) bool {
	return c.Span() >= playback
}

// Gamma returns the space coefficient γ (paper Eq. 7): the fraction of the
// file size the copy occupies at its peak. Long residencies reserve the
// full size from the start of caching; short residencies never hold more
// than the writer/last-reader gap Δ/P.
func (c Residency) Gamma(playback simtime.Duration) float64 {
	if playback <= 0 {
		return 0
	}
	if c.Long(playback) {
		return 1
	}
	return float64(c.Span()) / float64(playback)
}

// Support returns the time interval during which the copy occupies any
// space: caching plus the playback tail of the last service (paper §2.2.1:
// "Caching interval [ts, tf] is followed by the playback duration of the
// last service").
func (c Residency) Support(playback simtime.Duration) simtime.Interval {
	return simtime.NewInterval(c.Load, c.LastService.Add(playback))
}

// SpaceAt returns the copy's space requirement at time t (paper Eq. 6):
// γ·size on [Load, LastService], decaying linearly to zero over the
// playback length of the last service.
func (c Residency) SpaceAt(t simtime.Time, size float64, playback simtime.Duration) float64 {
	if t < c.Load || playback <= 0 {
		return 0
	}
	g := c.Gamma(playback)
	if t <= c.LastService {
		return g * size
	}
	end := c.LastService.Add(playback)
	if t >= end {
		return 0
	}
	return g * size * (1 - float64(t.Sub(c.LastService))/float64(playback))
}

// FileSchedule is the schedule S_i for a single title: all deliveries and
// residencies arranged for its request set R_i.
type FileSchedule struct {
	Video       media.VideoID `json:"video"`
	Deliveries  []Delivery    `json:"deliveries"`
	Residencies []Residency   `json:"residencies"`
}

// Clone returns a deep copy of the file schedule.
func (fs *FileSchedule) Clone() *FileSchedule {
	out := &FileSchedule{Video: fs.Video}
	out.Deliveries = make([]Delivery, len(fs.Deliveries))
	for i, d := range fs.Deliveries {
		d.Route = d.Route.Clone()
		out.Deliveries[i] = d
	}
	out.Residencies = append(make([]Residency, 0, len(fs.Residencies)), fs.Residencies...)
	return out
}

// Readers returns each residency's service list: the ascending indices of the
// deliveries whose SourceResidency names it.
func (fs *FileSchedule) Readers() [][]int {
	at, idx := fs.readers(nil)
	out := make([][]int, len(fs.Residencies))
	for j := range out {
		out[j] = idx[at[j]:at[j+1]:at[j+1]]
	}
	return out
}

// readers groups the deliveries by the residency they draw from, in one
// counting pass: residency j's readers, ascending, are idx[at[j]:at[j+1]]. Both
// are carved out of buf when it holds readersLen(fs) ints, out of a new array
// otherwise.
func (fs *FileSchedule) readers(buf []int) (at, idx []int) {
	nr, n := len(fs.Residencies), readersLen(fs)
	if cap(buf) < n {
		buf = make([]int, n)
	}
	at, idx = buf[:nr+2], buf[nr+2:n]
	clear(at)
	for _, d := range fs.Deliveries {
		if sr := d.SourceResidency; sr >= 0 && sr < nr {
			at[sr+2]++
		}
	}
	// Summed, at[j+1] is where residency j's readers start. Written at it as
	// a cursor, they move it on to where they end, which is where residency
	// j+1's start: at[j] then holds residency j's start.
	for j := 2; j < nr+2; j++ {
		at[j] += at[j-1]
	}
	for di, d := range fs.Deliveries {
		if sr := d.SourceResidency; sr >= 0 && sr < nr {
			idx[at[sr+1]] = di
			at[sr+1]++
		}
	}
	return at[:nr+1], idx
}

func readersLen(fs *FileSchedule) int { return len(fs.Residencies) + 2 + len(fs.Deliveries) }

// Schedule is the global service schedule S: the union of per-file
// schedules (paper §2.3).
type Schedule struct {
	Files map[media.VideoID]*FileSchedule `json:"files"`
}

// New returns an empty schedule.
func New() *Schedule {
	return &Schedule{Files: make(map[media.VideoID]*FileSchedule)}
}

// Put installs (or replaces) the schedule of one file.
func (s *Schedule) Put(fs *FileSchedule) { s.Files[fs.Video] = fs }

// File returns the schedule of one title, or nil.
func (s *Schedule) File(v media.VideoID) *FileSchedule { return s.Files[v] }

// VideoIDs returns the scheduled titles in ascending order.
func (s *Schedule) VideoIDs() []media.VideoID {
	out := make([]media.VideoID, 0, len(s.Files))
	for id := range s.Files {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// NumDeliveries returns the total number of streams across all files.
func (s *Schedule) NumDeliveries() int {
	n := 0
	for _, fs := range s.Files {
		n += len(fs.Deliveries)
	}
	return n
}

// NumResidencies returns the total number of cached copies across all files.
func (s *Schedule) NumResidencies() int {
	n := 0
	for _, fs := range s.Files {
		n += len(fs.Residencies)
	}
	return n
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := New()
	for id, fs := range s.Files {
		out.Files[id] = fs.Clone()
	}
	return out
}

// Validate checks every structural invariant of the schedule against the
// topology and catalog, and that it serves exactly the given request set.
// It returns the first violation found, structural ones first.
func (s *Schedule) Validate(topo *topology.Topology, catalog *media.Catalog, requests workload.Set) error {
	if err := s.ValidateStructure(topo, catalog); err != nil {
		return err
	}
	return s.Serves(requests)
}

// ValidateStructure is the half of Validate that asks no question about
// requests: every file sits under its own key and names a catalog title, and
// every record's references — nodes, users, routes, residency and delivery
// indices, caching windows — resolve and agree with one another. It is total
// on anything a decoder can produce (a nil file, an ID outside the topology),
// and a schedule that passes may be indexed by the IDs it holds; one that
// fails must not be handed to the ledger, the simulator or billing.
func (s *Schedule) ValidateStructure(topo *topology.Topology, catalog *media.Catalog) error {
	var last []simtime.Time
	for vid, fs := range s.Files {
		if fs == nil {
			return fmt.Errorf("schedule: file map key %d holds no schedule", vid)
		}
		if fs.Video != vid {
			return fmt.Errorf("schedule: file map key %d holds schedule for %d", vid, fs.Video)
		}
		if int(vid) < 0 || int(vid) >= catalog.Len() {
			return fmt.Errorf("schedule: unknown video %d", vid)
		}
		if err := validateFile(topo, fs, &last); err != nil {
			return err
		}
	}
	return nil
}

// Serves checks that the deliveries are exactly the given requests, as a
// multiset of (user, video, start): none unserved, none served twice, none
// that nobody asked for.
func (s *Schedule) Serves(requests workload.Set) error {
	return new(Coverage).Serves(s, requests)
}

// Coverage is the multiset Serves counts requests in. A caller that checks
// coverage at every commit keeps one, so the map it fills — one entry per
// request, the size of the whole history — is allocated once and emptied with
// clear instead of built afresh each time. The zero value is ready to use; a
// Coverage is not safe for concurrent use.
type Coverage struct {
	want map[coverKey]int
}

type coverKey struct {
	u topology.UserID
	v media.VideoID
	t simtime.Time
}

// Serves is Schedule.Serves, counting in c.
func (c *Coverage) Serves(s *Schedule, requests workload.Set) error {
	if c.want == nil {
		c.want = make(map[coverKey]int, len(requests))
	}
	want := c.want
	clear(want)
	for _, r := range requests {
		want[coverKey{r.User, r.Video, r.Start}]++
	}
	for _, fs := range s.Files {
		for _, d := range fs.Deliveries {
			k := coverKey{d.User, d.Video, d.Start}
			if want[k] == 0 {
				return fmt.Errorf("schedule: delivery for (%d,%d,%v) matches no request", d.User, d.Video, d.Start)
			}
			want[k]--
		}
	}
	for k, n := range want {
		if n > 0 {
			return fmt.Errorf("schedule: request (user %d, video %d, %v) not served", k.u, k.v, k.t)
		}
	}
	return nil
}

func hasNode(topo *topology.Topology, n topology.NodeID) bool {
	return int(n) >= 0 && int(n) < topo.NumNodes()
}

// validateFile checks one file. last, refilled from file to file, holds each
// residency's latest reader start, its Load when it has none.
func validateFile(topo *topology.Topology, fs *FileSchedule, last *[]simtime.Time) error {
	*last = (*last)[:0]
	for _, c := range fs.Residencies {
		*last = append(*last, c.Load)
	}
	for i, d := range fs.Deliveries {
		if d.Video != fs.Video {
			return fmt.Errorf("schedule: delivery %d of file %d names video %d", i, fs.Video, d.Video)
		}
		if len(d.Route) == 0 {
			return fmt.Errorf("schedule: delivery %d has empty route", i)
		}
		if d.Start < 0 {
			return fmt.Errorf("schedule: delivery %d starts at negative time %v", i, d.Start)
		}
		// Each hop must be a link out of the node before it, so a route whose
		// first node exists names existing nodes throughout.
		if !hasNode(topo, d.Src()) {
			return fmt.Errorf("schedule: delivery %d route starts at unknown node %d", i, d.Src())
		}
		for h := 1; h < len(d.Route); h++ {
			if _, ok := topo.EdgeBetween(d.Route[h-1], d.Route[h]); !ok {
				return fmt.Errorf("schedule: delivery %d route hop %v-%v is not a link", i, d.Route[h-1], d.Route[h])
			}
		}
		if int(d.User) < 0 || int(d.User) >= topo.NumUsers() {
			return fmt.Errorf("schedule: delivery %d serves unknown user %d", i, d.User)
		}
		if local := topo.User(d.User).Local; d.Dst() != local {
			return fmt.Errorf("schedule: delivery %d ends at %d, but user %d is local to %d", i, d.Dst(), d.User, local)
		}
		switch {
		case d.SourceResidency == NoResidency:
			if d.Src() != topo.Warehouse() {
				return fmt.Errorf("schedule: delivery %d claims warehouse supply but starts at node %d", i, d.Src())
			}
		case d.SourceResidency < 0 || d.SourceResidency >= len(fs.Residencies):
			return fmt.Errorf("schedule: delivery %d references residency %d of %d", i, d.SourceResidency, len(fs.Residencies))
		default:
			c := fs.Residencies[d.SourceResidency]
			if c.Loc != d.Src() {
				return fmt.Errorf("schedule: delivery %d starts at %d but its residency lives at %d", i, d.Src(), c.Loc)
			}
			if d.Start < c.Load || d.Start > c.LastService {
				return fmt.Errorf("schedule: delivery %d at %v outside residency window [%v, %v]",
					i, d.Start, c.Load, c.LastService)
			}
			(*last)[d.SourceResidency] = simtime.Max((*last)[d.SourceResidency], d.Start)
		}
	}
	for j, c := range fs.Residencies {
		if c.Video != fs.Video {
			return fmt.Errorf("schedule: residency %d of file %d names video %d", j, fs.Video, c.Video)
		}
		if !hasNode(topo, c.Loc) || topo.Node(c.Loc).Kind != topology.KindStorage {
			return fmt.Errorf("schedule: residency %d caches at non-storage node %d", j, c.Loc)
		}
		if c.Load > c.LastService {
			return fmt.Errorf("schedule: residency %d has Load %v after LastService %v", j, c.Load, c.LastService)
		}
		if c.FedBy == PrePlacedFeed {
			// Its span is planned; its readers were checked to start inside it.
			if c.Src != topo.Warehouse() {
				return fmt.Errorf("schedule: pre-placed residency %d must be sourced at the warehouse", j)
			}
			if c.Load < 0 {
				return fmt.Errorf("schedule: pre-placed residency %d loads at negative time %v", j, c.Load)
			}
		} else {
			if c.FedBy < 0 || c.FedBy >= len(fs.Deliveries) {
				return fmt.Errorf("schedule: residency %d fed by delivery %d of %d", j, c.FedBy, len(fs.Deliveries))
			}
			feed := fs.Deliveries[c.FedBy]
			if feed.Start != c.Load {
				return fmt.Errorf("schedule: residency %d loads at %v but its feed starts at %v", j, c.Load, feed.Start)
			}
			if feed.Src() != c.Src {
				return fmt.Errorf("schedule: residency %d claims source %d but its feed originates at %d", j, c.Src, feed.Src())
			}
			onRoute := false
			for _, n := range feed.Route {
				if n == c.Loc {
					onRoute = true
					break
				}
			}
			if !onRoute {
				return fmt.Errorf("schedule: residency %d at node %d is not on its feed's route %v", j, c.Loc, feed.Route)
			}
			if (*last)[j] != c.LastService {
				return fmt.Errorf("schedule: residency %d LastService %v, but latest service starts at %v", j, c.LastService, (*last)[j])
			}
		}
	}
	return nil
}
