// Package vodsim executes a service schedule on a discrete-event simulator
// and verifies, from first principles, what the scheduler promised:
//
//   - every request receives its stream at its reserved start time;
//   - disk reservations at every intermediate storage stay within capacity;
//   - the independently-accounted network bytes and storage byte·seconds,
//     priced at the rate book, reproduce the analytic Ψ(S) exactly.
//
// The simulator does not reuse the cost model's formulas: link usage is
// accumulated per stream event, and storage usage is integrated by an
// event-driven level/slope integrator fed by reserve/drain events. Equality
// with Ψ(S) is therefore a genuine end-to-end check of the cost model.
package vodsim

import (
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/des"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// Violation is one observed breach of the schedule's guarantees.
type Violation struct {
	At   simtime.Time
	Node topology.NodeID // storage node, or -1 for link/stream violations
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v node=%d: %s", v.At, v.Node, v.Msg)
}

// LinkUsage aggregates one link's traffic over the run.
type LinkUsage struct {
	Edge        int
	Bytes       units.Bytes // total volume carried (pre-loads included)
	BulkBytes   units.Bytes // pre-load volume, priced at the preload factor
	PeakStreams int         // max concurrent streams
	PeakRate    units.BytesPerSec
}

// NodeUsage aggregates one storage node's disk usage over the run.
type NodeUsage struct {
	Node         topology.NodeID
	PeakReserved float64 // bytes booked by the cost model's envelope
	ByteSeconds  float64 // ∫ reserved dt
	// PeakPhysical tracks the bytes actually present (written minus
	// drained by the final reader). Per copy its peak equals the booked
	// envelope's peak (γ·size), but the SHAPES differ: the paper's Eq. 6
	// envelope decays from LastService while a short residency physically
	// holds its plateau until the writer finishes at Load+P, so aggregate
	// physical usage can exceed the aggregate envelope — and even the
	// node's capacity — inside those tail windows. The simulator surfaces
	// this as PhysicalNotes rather than violations: it is a property of
	// the paper's amortization, not of a particular schedule.
	PeakPhysical float64
}

// Report is the outcome of executing a schedule.
type Report struct {
	Streams     int
	CacheLoads  int
	Violations  []Violation
	Links       []LinkUsage
	Nodes       []NodeUsage
	NetworkCost units.Money // priced from accumulated link bytes
	StorageCost units.Money // priced from integrated byte·seconds
	// PhysicalNotes flags nodes whose physically-held bytes peaked above
	// capacity even though every booked reservation fit: the paper's
	// short-residency envelope (Eq. 6) decays from the last service while
	// the writer is still filling, so the amortized booking understates
	// the transient physical footprint. Informational, not a violation of
	// the paper's model.
	PhysicalNotes []string

	// Fault-injection outcome (all zero on a fault-free run). Missed
	// counts services that could not start because their source, route or
	// destination was down; Severed counts streams cut mid-playback;
	// DeadResidencies counts cached copies lost (or never written) to a
	// fault. FaultNotes narrates each casualty. Faults are environment
	// damage, not schedule bugs, so they are reported here rather than as
	// Violations.
	Missed          int
	Severed         int
	DeadResidencies int
	FaultNotes      []string
}

// TotalCost returns the simulator's independently derived Ψ(S).
func (r *Report) TotalCost() units.Money { return r.NetworkCost + r.StorageCost }

// OK reports whether the run observed no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

type nodeState struct {
	level      float64 // current reserved bytes
	slope      float64 // bytes/sec
	phys       float64 // bytes physically present
	physSlope  float64 // bytes/sec
	lastUpdate simtime.Time
	integral   float64 // reserved byte·seconds so far
	peak       float64
	physPeak   float64
	capacity   float64
	unbounded  bool
}

// residue is how far from zero an accumulator may sit once everything it
// summed has drained again and still count as empty. The level and physical
// accounts add and subtract every copy a node ever held, so their rounding
// error grows with what passed through them: a milli-byte for an idle node,
// plus one part in 1e12 of the account's peak.
func residue(peak float64) float64 { return 1e-3 + 1e-12*peak }

func (ns *nodeState) advance(now simtime.Time) {
	dt := now.Sub(ns.lastUpdate).Seconds()
	if dt > 0 {
		next := ns.level + ns.slope*dt
		ns.integral += (ns.level + next) / 2 * dt
		ns.level = next
		ns.phys += ns.physSlope * dt
		if ns.level < 0 && ns.level > -residue(ns.peak) {
			ns.level = 0 // float cancellation guard
		}
		if ns.phys < 0 && ns.phys > -residue(ns.physPeak) {
			ns.phys = 0
		}
		ns.lastUpdate = now
	}
	if ns.level > ns.peak {
		ns.peak = ns.level
	}
	if ns.phys > ns.physPeak {
		ns.physPeak = ns.phys
	}
}

type linkState struct {
	streams   int
	rate      float64
	bytes     float64
	bulkBytes float64 // pre-load volume, priced at the preload factor
	peakN     int
	peakRate  float64
	lastAt    simtime.Time
}

// Execute runs the schedule on the simulator under a perfect (fault-free)
// infrastructure. The rate book supplies the topology and the prices; the
// catalog supplies sizes, playback lengths and stream bandwidths.
func Execute(book *pricing.Book, catalog *media.Catalog, s *schedule.Schedule) *Report {
	return ExecuteScenario(book, catalog, s, nil)
}

// ExecuteScenario runs the schedule under a fault scenario: affected
// residencies are marked dead at fault onset (their reservation is released
// and their disk integration stops), in-flight streams crossing a failed
// element are severed at onset (link bytes accrue only up to the cut), and
// services whose source, route or destination is down at start time are
// missed entirely. A nil or empty scenario reproduces the fault-free run
// exactly.
func ExecuteScenario(book *pricing.Book, catalog *media.Catalog, s *schedule.Schedule, sc *faults.Scenario) *Report {
	topo := book.Topology()
	imp := faults.Assess(topo, catalog, s, sc)
	eng := des.New(0)
	rep := &Report{}
	if imp != nil {
		rep.Missed = imp.Missed
		rep.Severed = imp.Severed
		rep.DeadResidencies = imp.DeadResidencies
	}

	nodes := make([]nodeState, topo.NumNodes())
	for _, n := range topo.Nodes() {
		nodes[n.ID].capacity = n.Capacity.Float()
		nodes[n.ID].unbounded = n.Kind == topology.KindWarehouse
	}
	links := make([]linkState, topo.NumEdges())

	violate := func(at simtime.Time, node topology.NodeID, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{At: at, Node: node, Msg: fmt.Sprintf(format, args...)})
	}

	// Cheapest-route table for pre-placement bulk flows and end-to-end
	// pricing, built lazily.
	var routes *routing.Table
	tableLazy := func() *routing.Table {
		if routes == nil {
			routes = routing.NewTable(book)
		}
		return routes
	}
	routeFromVW := func(dst topology.NodeID) (routing.Route, error) {
		return tableLazy().Route(topo.Warehouse(), dst)
	}
	// In EndToEnd mode streams are charged a single src→dst rate (possibly
	// an explicit override), not the sum of their hops; accumulate that
	// here while the per-link byte accounting below keeps tracking traffic.
	endToEnd := book.Mode() == pricing.EndToEnd
	var e2eNetwork units.Money

	// Residency state machines: verify that services read live copies.
	type cacheKey struct {
		vid int
		idx int
	}
	type cacheState struct {
		res      schedule.Residency
		playback simtime.Duration
	}
	caches := make(map[cacheKey]cacheState)

	schedAt := func(t simtime.Time, fn des.Event) {
		if err := eng.At(t, fn); err != nil {
			violate(t, -1, "event before time origin: %v", err)
		}
	}

	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		v := catalog.Video(vid)
		playback := v.Playback
		rate := float64(v.Rate)
		size := v.Size.Float()

		for j, c := range fs.Residencies {
			caches[cacheKey{int(vid), j}] = cacheState{res: c, playback: playback}
			cc := c
			rimp := imp.Residency(vid, j)
			dead := rimp.Dead
			// deadAt sentinels past every event for a surviving copy, so
			// every "before death" comparison below degenerates to the
			// fault-free behaviour.
			deadAt := cc.LastService.Add(playback).Add(simtime.Second)
			if dead {
				deadAt = rimp.DeadAt
				rep.FaultNotes = append(rep.FaultNotes, fmt.Sprintf(
					"residency %d of video %d at node %d dead at %v: %s",
					j, vid, cc.Loc, rimp.DeadAt, rimp.Cause))
			}
			if dead && deadAt <= cc.Load {
				// The copy never materializes: no bulk fill, no
				// reservation, no disk usage, no load counted.
				continue
			}
			// A pre-placed copy is filled by a bulk transfer from the
			// warehouse over [Load, Load+P] at the file's data rate: the
			// route carries exactly size bytes, matching the analytic
			// PrePlacementCost. A mid-fill death cuts the transfer short.
			if cc.FedBy == schedule.PrePlacedFeed {
				route, err := routeFromVW(cc.Loc)
				if err != nil {
					violate(cc.Load, cc.Loc, "pre-placement route: %v", err)
				} else {
					bulkRate := size / playback.Seconds()
					bulkEnd := cc.Load.Add(playback)
					bulkVol := bulkRate * playback.Seconds()
					if dead && deadAt < bulkEnd {
						bulkEnd = deadAt
						bulkVol = bulkRate * bulkEnd.Sub(cc.Load).Seconds()
					}
					for h := 1; h < len(route); h++ {
						ei, ok := topo.EdgeBetween(route[h-1], route[h])
						if !ok {
							continue
						}
						edge := ei
						schedAt(cc.Load, func(now simtime.Time) {
							ls := &links[edge]
							ls.streams++
							ls.rate += bulkRate
							if ls.streams > ls.peakN {
								ls.peakN = ls.streams
							}
							if ls.rate > ls.peakRate {
								ls.peakRate = ls.rate
							}
						})
						schedAt(bulkEnd, func(now simtime.Time) {
							ls := &links[edge]
							ls.streams--
							ls.rate -= bulkRate
							ls.bulkBytes += bulkVol
						})
					}
				}
			}
			gamma := cc.Gamma(playback)
			reserve := gamma * size
			// Reserve at Load; begin linear drain at LastService; stop the
			// drain (slope restored) at LastService + P. A dead copy's
			// remaining reservation is released at the instant of death and
			// any in-progress drain slope cancelled.
			schedAt(cc.Load, func(now simtime.Time) {
				ns := &nodes[cc.Loc]
				ns.advance(now)
				ns.level += reserve
				if ns.level > ns.peak {
					ns.peak = ns.level
				}
				if !ns.unbounded && ns.level > ns.capacity+1e-3 {
					violate(now, cc.Loc, "reservation %.0fB exceeds capacity %.0fB", ns.level, ns.capacity)
				}
				rep.CacheLoads++
			})
			drainRate := reserve / playback.Seconds()
			drainStarted := cc.LastService < deadAt
			if drainStarted {
				schedAt(cc.LastService, func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.slope -= drainRate
				})
			}
			if !dead {
				schedAt(cc.LastService.Add(playback), func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.slope += drainRate
				})
			} else {
				remaining := reserve
				if drainStarted {
					remaining -= drainRate * deadAt.Sub(cc.LastService).Seconds()
				}
				rel := remaining
				schedAt(deadAt, func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.level -= rel
					if drainStarted {
						ns.slope += drainRate
					}
				})
			}
			// Physical profile: the copy is written at the stream's data
			// rate size/P over [Load, Load+P] and drained by the final
			// reader over [LastService, LastService+P]. Death stops the
			// writer and wipes whatever bytes are still on disk.
			fillRate := size / playback.Seconds()
			fillEnd := cc.Load.Add(playback)
			if dead && deadAt < fillEnd {
				fillEnd = deadAt
			}
			schedAt(cc.Load, func(now simtime.Time) {
				ns := &nodes[cc.Loc]
				ns.advance(now)
				ns.physSlope += fillRate
			})
			schedAt(fillEnd, func(now simtime.Time) {
				ns := &nodes[cc.Loc]
				ns.advance(now)
				ns.physSlope -= fillRate
			})
			if drainStarted {
				schedAt(cc.LastService, func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.physSlope -= fillRate
				})
			}
			if !dead {
				schedAt(cc.LastService.Add(playback), func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.physSlope += fillRate
				})
			} else {
				physLeft := fillRate * fillEnd.Sub(cc.Load).Seconds()
				if drainStarted {
					physLeft -= fillRate * deadAt.Sub(cc.LastService).Seconds()
				}
				wipe := physLeft
				schedAt(deadAt, func(now simtime.Time) {
					ns := &nodes[cc.Loc]
					ns.advance(now)
					ns.phys -= wipe
					if drainStarted {
						ns.physSlope += fillRate
					}
				})
			}
		}

		for di, d := range fs.Deliveries {
			dd := d
			dimp := imp.Delivery(vid, di)
			if dimp.Fate == faults.FateMissed {
				// The service never starts: no stream, no network bytes.
				rep.FaultNotes = append(rep.FaultNotes, fmt.Sprintf(
					"missed: video %d delivery %d for user %d at %v: %s",
					vid, di, dd.User, dd.Start, dimp.Cause))
				continue
			}
			severed := dimp.Fate == faults.FateSevered
			end := dd.Start.Add(playback)
			if severed {
				end = dimp.At
				rep.FaultNotes = append(rep.FaultNotes, fmt.Sprintf(
					"severed: video %d delivery %d for user %d at %v: %s",
					vid, di, dd.User, dimp.At, dimp.Cause))
			}
			// Dynamic continuity check at stream start.
			if dd.SourceResidency != schedule.NoResidency {
				key := cacheKey{int(vid), dd.SourceResidency}
				start := dd.Start
				schedAt(start, func(now simtime.Time) {
					cs, ok := caches[key]
					if !ok {
						violate(now, dd.Src(), "stream reads unknown cache %v", key)
						return
					}
					if now < cs.res.Load || now > cs.res.LastService {
						violate(now, dd.Src(), "stream reads cache outside its residency [%v, %v]",
							cs.res.Load, cs.res.LastService)
					}
				})
			}
			if endToEnd {
				carried := float64(v.StreamBytes())
				if severed {
					carried = rate * end.Sub(dd.Start).Seconds()
				}
				e2eNetwork += units.Money(carried * float64(tableLazy().Rate(dd.Src(), dd.Dst())))
			}
			// Stream occupies each edge of its route for P at rate B (up
			// to the sever instant when a fault cuts it).
			for h := 1; h < len(dd.Route); h++ {
				ei, ok := topo.EdgeBetween(dd.Route[h-1], dd.Route[h])
				if !ok {
					violate(dd.Start, -1, "route hop %v-%v is not a link", dd.Route[h-1], dd.Route[h])
					continue
				}
				edge := ei
				schedAt(dd.Start, func(now simtime.Time) {
					ls := &links[edge]
					ls.streams++
					ls.rate += rate
					if ls.streams > ls.peakN {
						ls.peakN = ls.streams
					}
					if ls.rate > ls.peakRate {
						ls.peakRate = ls.rate
					}
				})
				carried := rate * playback.Seconds()
				if severed {
					carried = rate * end.Sub(dd.Start).Seconds()
				}
				vol := carried
				schedAt(end, func(now simtime.Time) {
					ls := &links[edge]
					ls.streams--
					ls.rate -= rate
					ls.bytes += vol
				})
			}
			rep.Streams++
		}
	}

	eng.Run()

	// Final accounting: close node integrals (levels decay to zero by the
	// last event, but advance anyway for safety) and price everything.
	for id := range nodes {
		ns := &nodes[id]
		ns.advance(eng.Now())
		if ns.level > residue(ns.peak) {
			violate(eng.Now(), topology.NodeID(id), "residual reservation %gB at end of run (peak %gB)", ns.level, ns.peak)
		}
		if ns.phys > residue(ns.physPeak) {
			violate(eng.Now(), topology.NodeID(id), "residual physical bytes %g at end of run (peak %g)", ns.phys, ns.physPeak)
		}
		if !ns.unbounded && ns.physPeak > ns.capacity+1e-3 {
			rep.PhysicalNotes = append(rep.PhysicalNotes, fmt.Sprintf(
				"node %d: physical peak %.0fB exceeds capacity %.0fB (short-residency tail; see Eq. 6 note)",
				id, ns.physPeak, ns.capacity))
		}
		if ns.integral > 0 || ns.peak > 0 {
			rep.Nodes = append(rep.Nodes, NodeUsage{
				Node:         topology.NodeID(id),
				PeakReserved: ns.peak,
				ByteSeconds:  ns.integral,
				PeakPhysical: ns.physPeak,
			})
			rep.StorageCost += units.Money(ns.integral * float64(book.SRate(topology.NodeID(id))))
		}
	}
	for ei := range links {
		ls := &links[ei]
		if ls.streams != 0 {
			violate(eng.Now(), -1, "link %d ends with %d dangling streams", ei, ls.streams)
		}
		if ls.bytes > 0 || ls.bulkBytes > 0 {
			rep.Links = append(rep.Links, LinkUsage{
				Edge:        ei,
				Bytes:       units.Bytes(ls.bytes + ls.bulkBytes),
				BulkBytes:   units.Bytes(ls.bulkBytes),
				PeakStreams: ls.peakN,
				PeakRate:    units.BytesPerSec(ls.peakRate),
			})
			if !endToEnd {
				rep.NetworkCost += units.Money(ls.bytes * float64(book.NRate(ei)))
			}
			rep.NetworkCost += units.Money(ls.bulkBytes * float64(book.NRate(ei)) * book.PreloadFactor())
		}
	}
	rep.NetworkCost += e2eNetwork
	sort.Slice(rep.Links, func(i, j int) bool { return rep.Links[i].Edge < rep.Links[j].Edge })
	sort.Slice(rep.Nodes, func(i, j int) bool { return rep.Nodes[i].Node < rep.Nodes[j].Node })
	return rep
}
