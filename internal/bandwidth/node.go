package bandwidth

import (
	"fmt"
	"math"
	"sort"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// NodeCaps holds per-storage I/O bandwidth limits: the total streaming
// rate a node's disk subsystem sustains, covering streams it serves
// (deliveries supplied by a copy at the node, local playbacks included)
// and cache-fill writes. A zero entry means uncapped. The second half of
// the paper's §6 future work ("bandwidth constraints of the intermediate
// storages").
type NodeCaps struct {
	Node []units.BytesPerSec
}

// UniformNodes caps every intermediate storage at the same I/O rate; the
// warehouse stays uncapped (it is the provider's high-end archive).
func UniformNodes(topo *topology.Topology, cap units.BytesPerSec) NodeCaps {
	c := NodeCaps{Node: make([]units.BytesPerSec, topo.NumNodes())}
	for _, n := range topo.Nodes() {
		if n.Kind == topology.KindStorage {
			c.Node[n.ID] = cap
		}
	}
	return c
}

// Capped reports whether the node has a finite I/O limit.
func (c NodeCaps) Capped(n topology.NodeID) bool {
	return int(n) < len(c.Node) && c.Node[n] > 0
}

// NodeOverload is one saturated-storage situation.
type NodeOverload struct {
	Node     topology.NodeID
	Interval simtime.Interval
	Peak     units.BytesPerSec
}

func (o NodeOverload) String() string {
	return fmt.Sprintf("storage %d I/O overloaded %s peak=%v", o.Node, o.Interval, o.Peak)
}

// NodeUsage is the per-storage I/O profile of a schedule.
type NodeUsage struct {
	topo   *topology.Topology
	events [][]event
}

// AnalyzeNodes builds the I/O profile: each delivery loads its supply node
// at the title's rate for the playback length (reads), and each residency
// loads its own node while being written (its feeding stream's window).
func AnalyzeNodes(topo *topology.Topology, catalog *media.Catalog, s *schedule.Schedule) *NodeUsage {
	u := &NodeUsage{topo: topo, events: make([][]event, topo.NumNodes())}
	add := func(n topology.NodeID, start simtime.Time, playback simtime.Duration, rate float64) {
		u.events[n] = append(u.events[n],
			event{at: start, rate: rate},
			event{at: start.Add(playback), rate: -rate})
	}
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		v := catalog.Video(vid)
		rate := float64(v.Rate)
		for _, d := range fs.Deliveries {
			add(d.Src(), d.Start, v.Playback, rate) // read at the supply
		}
		for _, c := range fs.Residencies {
			add(c.Loc, c.Load, v.Playback, rate) // write while loading
		}
	}
	for n := range u.events {
		sort.Slice(u.events[n], func(i, j int) bool { return u.events[n][i].at < u.events[n][j].at })
	}
	return u
}

// PeakRate returns the maximum I/O rate ever seen at the node.
func (u *NodeUsage) PeakRate(n topology.NodeID) units.BytesPerSec {
	peak, cur := 0.0, 0.0
	for _, ev := range u.events[n] {
		cur += ev.rate
		if cur > peak {
			peak = cur
		}
	}
	return units.BytesPerSec(peak)
}

// Overloads returns the windows where each capped storage's I/O rate
// strictly exceeds its limit.
func (u *NodeUsage) Overloads(caps NodeCaps) []NodeOverload {
	var out []NodeOverload
	for n := range u.events {
		id := topology.NodeID(n)
		if !caps.Capped(id) {
			continue
		}
		for _, x := range sweepSteps(u.events[n], float64(caps.Node[id])) {
			out = append(out, NodeOverload{Node: id, Interval: x.iv, Peak: units.BytesPerSec(x.peak)})
		}
	}
	return out
}

// NodeResult reports a storage-I/O resolution pass.
type NodeResult struct {
	Schedule   *schedule.Schedule
	Moves      int // deliveries re-pointed at the warehouse
	CostBefore units.Money
	CostAfter  units.Money
	Unresolved []NodeOverload
}

// Delta returns the cost increase paid for I/O feasibility.
func (r *NodeResult) Delta() units.Money { return r.CostAfter - r.CostBefore }

// ResolveNodes offloads saturated storages: deliveries reading an
// over-committed copy are re-pointed at the warehouse, cheapest first,
// until every capped storage fits its I/O limit (or no movable delivery
// remains — a delivery that feeds a cache copy stays put, since moving it
// would re-source the copy).
//
// The input schedule is not modified.
func ResolveNodes(m *cost.Model, s *schedule.Schedule, caps NodeCaps) (*NodeResult, error) {
	topo := m.Book().Topology()
	work := s.Clone()
	res := &NodeResult{Schedule: work, CostBefore: m.ScheduleCost(s)}

	maxIter := 10 * (work.NumDeliveries() + 1)
	for iter := 0; ; iter++ {
		usage := AnalyzeNodes(topo, m.Catalog(), work)
		overloads := filterNodeResolved(usage.Overloads(caps), res.Unresolved)
		if len(overloads) == 0 {
			break
		}
		if iter >= maxIter {
			return nil, fmt.Errorf("bandwidth: node resolution did not converge after %d moves", iter)
		}
		of := overloads[0]
		if !moveOneDelivery(m, work, of) {
			res.Unresolved = append(res.Unresolved, of)
			continue
		}
		res.Moves++
	}
	res.CostAfter = m.ScheduleCost(work)
	return res, nil
}

func filterNodeResolved(ovs, unresolved []NodeOverload) []NodeOverload {
	if len(unresolved) == 0 {
		return ovs
	}
	kept := ovs[:0]
	for _, o := range ovs {
		skip := false
		for _, u := range unresolved {
			if o.Node == u.Node && o.Interval.Overlaps(u.Interval) {
				skip = true
				break
			}
		}
		if !skip {
			kept = append(kept, o)
		}
	}
	return kept
}

// moveOneDelivery re-points the cheapest-to-move delivery reading from the
// overloaded node during the window at the warehouse, maintaining every
// schedule invariant (LastService, residency pruning).
func moveOneDelivery(m *cost.Model, work *schedule.Schedule, of NodeOverload) bool {
	topo := m.Book().Topology()
	bestDelta := math.Inf(1)
	var bestVid media.VideoID
	bestIdx := -1

	for _, vid := range work.VideoIDs() {
		fs := work.Files[vid]
		v := m.Catalog().Video(vid)
		for di, d := range fs.Deliveries {
			if d.Src() != of.Node || d.SourceResidency == schedule.NoResidency {
				continue
			}
			window := simtime.NewInterval(d.Start, d.Start.Add(v.Playback))
			if !window.Overlaps(of.Interval) && !window.Contains(of.Interval.Start) {
				continue
			}
			if feedsAnyResidency(fs, di) {
				continue
			}
			delta := float64(moveDelta(m, fs, v, di))
			if delta < bestDelta {
				bestDelta = delta
				bestVid, bestIdx = vid, di
			}
		}
	}
	if bestIdx < 0 {
		return false
	}
	applyMove(m, topo, work.Files[bestVid], bestIdx)
	return true
}

func feedsAnyResidency(fs *schedule.FileSchedule, di int) bool {
	for _, c := range fs.Residencies {
		if c.FedBy == di {
			return true
		}
	}
	return false
}

// moveDelta prices re-pointing delivery di at the warehouse: the new
// direct transfer, minus the old relay transfer, minus any storage saved
// by the source copy's LastService shrinking.
func moveDelta(m *cost.Model, fs *schedule.FileSchedule, v media.Video, di int) units.Money {
	d := fs.Deliveries[di]
	c := fs.Residencies[d.SourceResidency]
	newNet := m.TransferCost(v.ID, m.Book().Topology().Warehouse(), d.Dst())
	oldNet := m.TransferCost(v.ID, c.Loc, d.Dst())

	oldStorage := m.ResidencyCost(c)
	shrunk := c
	shrunk.LastService, _ = lastServiceWithout(fs, d.SourceResidency, di)
	newStorage := m.ResidencyCost(shrunk)
	return newNet - oldNet + newStorage - oldStorage
}

// lastServiceWithout recomputes a residency's LastService with one service
// removed, and counts the services left.
func lastServiceWithout(fs *schedule.FileSchedule, resIdx, di int) (simtime.Time, int) {
	last, n := fs.Residencies[resIdx].Load, 0
	for svc, d := range fs.Deliveries {
		if svc != di && d.SourceResidency == resIdx {
			last, n = max(last, d.Start), n+1
		}
	}
	return last, n
}

// applyMove performs the surgery: route from the warehouse, detach from
// the source residency, shrink or prune the residency.
func applyMove(m *cost.Model, topo *topology.Topology, fs *schedule.FileSchedule, di int) {
	d := &fs.Deliveries[di]
	resIdx := d.SourceResidency
	route, err := m.Table().Route(topo.Warehouse(), d.Dst())
	if err != nil {
		// Topology is connected by construction; treat as programmer error.
		panic("bandwidth: warehouse route missing: " + err.Error())
	}
	d.Route = route
	d.SourceResidency = schedule.NoResidency

	last, left := lastServiceWithout(fs, resIdx, di)
	fs.Residencies[resIdx].LastService = last
	if left == 0 {
		pruneResidency(fs, resIdx)
	}
}

// pruneResidency removes one serviceless residency and remaps the
// delivery-side indices (Residency.FedBy indexes deliveries and needs no
// remap).
func pruneResidency(fs *schedule.FileSchedule, resIdx int) {
	fs.Residencies = append(fs.Residencies[:resIdx], fs.Residencies[resIdx+1:]...)
	for i := range fs.Deliveries {
		if sr := fs.Deliveries[i].SourceResidency; sr != schedule.NoResidency && sr > resIdx {
			fs.Deliveries[i].SourceResidency = sr - 1
		}
	}
}
