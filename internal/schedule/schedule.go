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
// fails must not be handed to the ledger, the simulator or billing. The files
// are checked in video-ID order, and the violation named is the first one of
// the first file that has one.
func (s *Schedule) ValidateStructure(topo *topology.Topology, catalog *media.Catalog) error {
	return s.ValidateExtension(topo, catalog, nil)
}

// ValidateExtension is ValidateStructure for a schedule that replaces prev,
// when prev passed ValidateStructure against the same topology and catalog:
// it returns what s.ValidateStructure returns, the same record in the same
// words, but checks of each file only what prev's file does not vouch for.
// The deliveries the two files share from the first, record for record, and
// the residencies equal at the same index passed in prev; what is checked is
// the rest, and every reference a shared record makes to a record that
// changed — a delivery drawing from a copy that moved, loads later or is
// held shorter, a copy fed by a changed delivery, and each copy's
// LastService against its readers. Finding what
// the files share is a comparison, never a question to whatever produced s.
// A nil prev is the empty schedule, and then ValidateExtension is
// ValidateStructure.
func (s *Schedule) ValidateExtension(topo *topology.Topology, catalog *media.Catalog, prev *Schedule) error {
	return s.ValidateSharing(topo, catalog, prev, new(Shared))
}

// ValidateSharing is ValidateExtension reading how far each file of prev and
// s agree from sh, which walks the two unless it already holds that pair
// (Shared).
func (s *Schedule) ValidateSharing(topo *topology.Topology, catalog *media.Catalog, prev *Schedule, sh *Shared) error {
	shared := sh.between(prev, s)
	var w fileWork
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		if fs == nil {
			return fmt.Errorf("schedule: file map key %d holds no schedule", vid)
		}
		if fs.Video != vid {
			return fmt.Errorf("schedule: file map key %d holds schedule for %d", vid, fs.Video)
		}
		if int(vid) < 0 || int(vid) >= catalog.Len() {
			return fmt.Errorf("schedule: unknown video %d", vid)
		}
		var held *FileSchedule
		if prev != nil {
			held = prev.Files[vid]
		}
		if held == fs {
			continue // the very file that passed
		}
		if err := validateFile(topo, fs, held, shared[vid].records, &w); err != nil {
			return err
		}
	}
	return nil
}

// Serves checks that the deliveries are exactly the given requests, as a
// multiset of (user, video, start): none unserved, none served twice, none
// that nobody asked for.
func (s *Schedule) Serves(requests workload.Set) error {
	return new(Coverage).Extends(nil, s, requests)
}

// Shared holds, per video of one schedule prev, how far its file and the file
// of another schedule next agree from their first delivery: how many
// deliveries are the same record, which ValidateSharing does not check again,
// and how many serve the same request (user, video, start), which
// ExtendsSharing does not count. A caller that asks both about one pair —
// the commit bar, whose structural and coverage halves compare the same two
// schedules on a clean close — keeps one and hands it to both, and the files
// are walked once: a walk answers the next question about the same pair, by
// identity, once, so neither schedule may be modified between the two. The
// zero value is ready to use; a Shared is not safe for concurrent use.
type Shared struct {
	prev, next *Schedule // the pair of the walk not yet reused
	of         map[media.VideoID]prefix
}

// prefix is how far two files agree from the first delivery: as records,
// and as requests, which is never less.
type prefix struct{ records, requests int }

// between returns the prefixes of prev's and next's files, per video of
// prev, walking them unless the last walk was of that pair and has not been
// reused; none for a nil prev.
func (sh *Shared) between(prev, next *Schedule) map[media.VideoID]prefix {
	if prev == nil {
		return nil
	}
	if sh.prev == prev && sh.next == next {
		sh.prev, sh.next = nil, nil
		return sh.of
	}
	if sh.of == nil {
		sh.of = make(map[media.VideoID]prefix, len(prev.Files))
	}
	clear(sh.of)
	for vid, fs := range prev.Files {
		sh.of[vid] = sharedPrefix(fs.deliveries(), next.Files[vid].deliveries())
	}
	sh.prev, sh.next = prev, next
	return sh.of
}

// sharedPrefix returns how far p and n agree from the first delivery. Two
// slices of one array agree wherever both reach, without a comparison.
func sharedPrefix(p, n []Delivery) prefix {
	n = n[:min(len(p), len(n))]
	if len(n) > 0 && &p[0] == &n[0] {
		return prefix{records: len(n), requests: len(n)}
	}
	var k prefix
	for k.records < len(n) && sameDelivery(&p[k.records], &n[k.records]) {
		k.records++
	}
	k.requests = k.records
	for k.requests < len(n) && keyOf(p[k.requests]) == keyOf(n[k.requests]) {
		k.requests++
	}
	return k
}

// Coverage is the multiset Serves and Extends count requests in. A caller
// that checks coverage at every commit keeps one and asks Extends, whose map
// holds only what the commit changed, so it is allocated at the size of an
// epoch and emptied with clear. The zero value is ready to use; a Coverage is
// not safe for concurrent use.
type Coverage struct {
	want map[coverKey]int
}

type coverKey struct {
	u topology.UserID
	v media.VideoID
	t simtime.Time
}

func keyOf(d Delivery) coverKey { return coverKey{d.User, d.Video, d.Start} }

// before orders keys by video, then start, then user.
func (k coverKey) before(o coverKey) bool {
	if k.v != o.v {
		return k.v < o.v
	}
	if k.t != o.t {
		return k.t < o.t
	}
	return k.u < o.u
}

// Extends checks that next serves exactly what prev serves plus added: when
// prev passed Serves against a request set R, Extends passes exactly when
// Serves(next, R + added) does. Per video, the deliveries prev and next agree
// on, as (user, video, start) and in record order from the first, count on
// both sides and cancel; what is left must balance: next's tails are prev's
// tails plus added. The work is a walk for the common prefixes and a map of the
// tails and added, not a map of everything served. A nil prev is the
// empty schedule, and then Extends is Serves.
//
// A refusal names the first delivery that matches no request, in video-ID and
// then record order, or else the least request not served, by video, start
// and user: the same record for any map order and, when every delivery sits
// in its own video's file as ValidateStructure demands, for either form.
func (c *Coverage) Extends(prev, next *Schedule, added workload.Set) error {
	return c.ExtendsSharing(prev, next, added, new(Shared))
}

// ExtendsSharing is Extends reading how far each file of prev and next agree
// from sh, which walks the two unless it already holds that pair (Shared).
func (c *Coverage) ExtendsSharing(prev, next *Schedule, added workload.Set, sh *Shared) error {
	if c.want == nil {
		c.want = make(map[coverKey]int, len(added))
	}
	want := c.want
	clear(want)
	same := sh.between(prev, next)
	in := len(added)
	for _, r := range added {
		want[coverKey{r.User, r.Video, r.Start}]++
	}
	if prev != nil {
		for vid, fs := range prev.Files {
			for _, d := range fs.deliveries()[same[vid].requests:] {
				want[keyOf(d)]++
				in++
			}
		}
	}

	// A key names its video, so each file's count runs apart from the others'
	// and its first stray is the same in any order of files: the lowest
	// video's is named.
	var stray Delivery
	var strayIn media.VideoID
	found, out := false, 0
	for vid, fs := range next.Files {
		if found && vid > strayIn {
			continue
		}
		for _, d := range fs.deliveries()[same[vid].requests:] {
			k := keyOf(d)
			if want[k] == 0 {
				stray, strayIn, found = d, vid, true
				break
			}
			want[k]--
			out++
		}
	}
	if found {
		return fmt.Errorf("schedule: delivery for (%d,%d,%v) matches no request", stray.User, stray.Video, stray.Start)
	}
	// Every count went in as one of in and came out as one of out.
	if out == in {
		return nil
	}
	var least coverKey
	found = false
	for k, n := range want {
		if n > 0 && (!found || k.before(least)) {
			least, found = k, true
		}
	}
	return fmt.Errorf("schedule: request (user %d, video %d, %v) not served", least.u, least.v, least.t)
}

// deliveries returns the file's deliveries, none for a nil file.
func (fs *FileSchedule) deliveries() []Delivery {
	if fs == nil {
		return nil
	}
	return fs.Deliveries
}

func hasNode(topo *topology.Topology, n topology.NodeID) bool {
	return int(n) >= 0 && int(n) < topo.NumNodes()
}

// sameDelivery reports whether two deliveries are the same record. Routes
// are immutable and a carried-over delivery shares its predecessor's, so the
// route comparison is usually one of identity.
func sameDelivery(a, b *Delivery) bool {
	if a.Video != b.Video || a.User != b.User || a.Start != b.Start || a.SourceResidency != b.SourceResidency ||
		len(a.Route) != len(b.Route) {
		return false
	}
	return len(a.Route) == 0 || &a.Route[0] == &b.Route[0] || slices.Equal(a.Route, b.Route)
}

// fileWork is validateFile's working storage, refilled from file to file.
type fileWork struct {
	// last holds each residency's latest reader start, its Load when it has
	// none.
	last []simtime.Time
	// narrowed marks each residency whose readers in held must be checked
	// against it again: it is new, moved, loads later or is held shorter.
	narrowed []bool
}

// validateFile checks one file, in record order: deliveries, then
// residencies, and names the first violation. held, when not nil, is the file
// of the same video in a schedule that passed, whose first shared deliveries
// are fs's record for record, and what it vouches for is not checked again
// (ValidateExtension): of a delivery it shares only what it draws from, when
// that copy no longer spans held's window at held's node, and of a residency
// unchanged at its index only its feed, when that delivery is not shared,
// and its LastService.
func validateFile(topo *topology.Topology, fs, held *FileSchedule, shared int, w *fileWork) error {
	var hr []Residency
	if held != nil {
		hr = held.Residencies
	}
	last, narrowed := w.last[:0], w.narrowed[:0]
	for j, c := range fs.Residencies {
		last = append(last, c.Load)
		if held != nil { // with no held file no delivery is shared
			narrowed = append(narrowed, j >= len(hr) || c.Loc != hr[j].Loc || c.Load > hr[j].Load || c.LastService < hr[j].LastService)
		}
	}
	w.last, w.narrowed = last, narrowed
	for i := range fs.Deliveries {
		d := &fs.Deliveries[i]
		if i < shared { // held's own record
			// The record passed, inside held's copy at index sr; a copy at
			// the same node over a window no narrower still holds it.
			if sr := d.SourceResidency; sr != NoResidency {
				if sr >= len(fs.Residencies) {
					return fmt.Errorf("schedule: delivery %d references residency %d of %d", i, sr, len(fs.Residencies))
				}
				if narrowed[sr] {
					if err := checkSource(fs, i); err != nil {
						return err
					}
				}
				last[sr] = simtime.Max(last[sr], d.Start)
			}
			continue
		}
		if err := checkDelivery(topo, fs, i); err != nil {
			return err
		}
		if sr := d.SourceResidency; sr != NoResidency {
			last[sr] = simtime.Max(last[sr], d.Start)
		}
	}
	for j, c := range fs.Residencies {
		changed := j >= len(hr) || hr[j] != c
		if changed {
			if err := checkResidency(topo, fs, j); err != nil {
				return err
			}
		}
		if c.FedBy == PrePlacedFeed {
			continue
		}
		if c.FedBy >= shared || changed {
			if err := checkFeed(fs, j); err != nil {
				return err
			}
		}
		if last[j] != c.LastService {
			return fmt.Errorf("schedule: residency %d LastService %v, but latest service starts at %v", j, c.LastService, last[j])
		}
	}
	return nil
}

// checkDelivery checks delivery i of fs on its own and against the residency
// it draws from.
func checkDelivery(topo *topology.Topology, fs *FileSchedule, i int) error {
	d := &fs.Deliveries[i]
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
		return checkSource(fs, i)
	}
	return nil
}

// checkSource checks delivery i, which draws from a residency in range,
// against that copy: it starts where the copy lives, inside the copy's
// window.
func checkSource(fs *FileSchedule, i int) error {
	d := &fs.Deliveries[i]
	c := &fs.Residencies[d.SourceResidency]
	if c.Loc != d.Src() {
		return fmt.Errorf("schedule: delivery %d starts at %d but its residency lives at %d", i, d.Src(), c.Loc)
	}
	if d.Start < c.Load || d.Start > c.LastService {
		return fmt.Errorf("schedule: delivery %d at %v outside residency window [%v, %v]",
			i, d.Start, c.Load, c.LastService)
	}
	return nil
}

// checkResidency checks residency j of fs on its own: its video, its node,
// its window and, for a pre-placed copy, its source and load.
func checkResidency(topo *topology.Topology, fs *FileSchedule, j int) error {
	c := &fs.Residencies[j]
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
	}
	return nil
}

// checkFeed checks residency j of fs, not pre-placed, against the delivery
// writing it: it exists, starts at the copy's Load, at the copy's source, on
// a route through the copy's node.
func checkFeed(fs *FileSchedule, j int) error {
	c := &fs.Residencies[j]
	if c.FedBy < 0 || c.FedBy >= len(fs.Deliveries) {
		return fmt.Errorf("schedule: residency %d fed by delivery %d of %d", j, c.FedBy, len(fs.Deliveries))
	}
	feed := &fs.Deliveries[c.FedBy]
	if feed.Start != c.Load {
		return fmt.Errorf("schedule: residency %d loads at %v but its feed starts at %v", j, c.Load, feed.Start)
	}
	if feed.Src() != c.Src {
		return fmt.Errorf("schedule: residency %d claims source %d but its feed originates at %d", j, c.Src, feed.Src())
	}
	if !slices.Contains(feed.Route, c.Loc) {
		return fmt.Errorf("schedule: residency %d at node %d is not on its feed's route %v", j, c.Loc, feed.Route)
	}
	return nil
}
