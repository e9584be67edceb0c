// Package repair turns a fault scenario from a schedule-killer into a
// degraded-mode plan: given a service schedule and the faults that will hit
// it, it produces a repaired schedule in which every impacted FUTURE
// service (one that could not start because its source, route or
// destination was down) is re-sourced through the cheapest surviving
// option, and reports what could not be saved and what the repair costs.
//
// The repair is a rejective greedy in the spirit of the paper's §4.4: the
// surviving residencies form the supply pool, the scenario's (interval,
// node) outage pairs are banned — a copy may not be extended into a window
// in which its host is dead — and every re-sourced stream is routed around
// edges and nodes that are down during its playback. Three re-sourcing
// moves exist, tried cheapest-first:
//
//   - serve from an alternate surviving cached copy (possibly extending
//     its residency, capacity- and ban-checked);
//   - re-route around the dead element to the same kind of source;
//   - fall back to a direct warehouse stream (always available while the
//     VW is not browned out and the user's access route survives).
//
// Severed in-flight streams are history — repair does not touch them — and
// dead copies are truncated to their surviving readers, so the repaired
// schedule's Ψ(S) is directly comparable to the fault-free cost.
package repair

import (
	"fmt"
	"sort"

	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Policy selects the repair strategy.
type Policy int

const (
	// Reroute picks, per impacted service, the cheapest surviving option:
	// an alternate cached copy, a re-routed stream, or a VW fallback.
	Reroute Policy = iota + 1
	// VWDirect re-sources every impacted service straight from the
	// warehouse over a fault-avoiding route, ignoring surviving copies.
	// Simpler and more predictable; never cheaper than Reroute.
	VWDirect
)

func (p Policy) String() string {
	switch p {
	case Reroute:
		return "reroute"
	case VWDirect:
		return "vw-direct"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name ("" defaults to reroute).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "reroute":
		return Reroute, nil
	case "vw-direct":
		return VWDirect, nil
	default:
		return 0, fmt.Errorf("repair: unknown policy %q (want reroute or vw-direct)", s)
	}
}

// Options configures a repair run.
type Options struct {
	// Policy defaults to Reroute.
	Policy Policy
}

// MissedService is one request no repair move could save.
type MissedService struct {
	Video  media.VideoID   `json:"video"`
	User   topology.UserID `json:"user"`
	Start  simtime.Time    `json:"start"`
	Reason string          `json:"reason"`
}

// Result reports a repair run.
type Result struct {
	// Schedule is the repaired schedule: surviving deliveries untouched,
	// dead copies truncated to their surviving readers, impacted services
	// re-sourced.
	Schedule *schedule.Schedule
	// Impacted counts the future services the scenario knocked out (the
	// repair work list); Severed counts in-flight streams the scenario
	// cuts, which repair cannot help.
	Impacted int
	Severed  int
	// Repaired = FromCache + FromVW; Missed lists what could not be
	// saved. Repaired + len(Missed) == Impacted.
	Repaired  int
	FromCache int
	FromVW    int
	Missed    []MissedService
	// DeadCopies counts residencies the scenario kills (truncated or
	// dropped in the repaired schedule).
	DeadCopies int
	// CostBefore is the fault-free Ψ(S); CostAfter is Ψ of the repaired
	// schedule. Delta() is the repair overhead (it can be negative: dead
	// copies stop being charged while fallback streams pay more network).
	CostBefore units.Money
	CostAfter  units.Money
	// Degraded-mode cache statistics of the repaired schedule.
	Copies     int
	HitRatePct float64
}

// Delta returns CostAfter − CostBefore, the repair cost delta vs. the
// fault-free Ψ(S).
func (r *Result) Delta() units.Money { return r.CostAfter - r.CostBefore }

// moneyEps mirrors the scheduler's deterministic tie-break: a candidate
// must beat the incumbent by more than this to win.
const moneyEps = 1e-9

// Repair builds the failure-aware repaired schedule for s under the given
// scenario. The input schedule is not modified.
func Repair(m *cost.Model, s *schedule.Schedule, sc *faults.Scenario, opts Options) (*Result, error) {
	if opts.Policy == 0 {
		opts.Policy = Reroute
	}
	topo := m.Book().Topology()
	if err := sc.Validate(topo); err != nil {
		return nil, err
	}
	imp := faults.Assess(topo, m.Catalog(), s, sc)
	res := &Result{CostBefore: m.ScheduleCost(s)}
	if imp == nil {
		res.Schedule = s.Clone()
		res.CostAfter = res.CostBefore
		summarize(m, res)
		return res, nil
	}
	res.Impacted = imp.Missed
	res.Severed = imp.Severed
	res.DeadCopies = imp.DeadResidencies

	repaired, work, deadAt := skeleton(s, imp)
	res.Schedule = repaired

	// Re-source the impacted services chronologically (ties by user then
	// video for determinism), sharing one capacity ledger across files so
	// extensions on different titles see each other.
	sort.Slice(work, func(i, j int) bool {
		a, b := work[i], work[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Video < b.Video
	})
	ledger := occupancy.FromSchedule(topo, m.Catalog(), repaired)
	bans := sc.BannedPairs()
	for _, r := range work {
		if reason, ok := resource(m, repaired, ledger, bans, deadAt, sc, r, opts, res); !ok {
			res.Missed = append(res.Missed, MissedService{
				Video: r.Video, User: r.User, Start: r.Start, Reason: reason,
			})
		}
	}

	// Self-check with the commit predicate, against exactly the requests
	// the repaired schedule claims to cover.
	covered := make(workload.Set, 0, repaired.NumDeliveries())
	for _, vid := range repaired.VideoIDs() {
		for _, d := range repaired.Files[vid].Deliveries {
			covered = append(covered, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
		}
	}
	if err := scheduler.Check(topo, m.Catalog(), repaired, covered).Err(); err != nil {
		return nil, fmt.Errorf("repair: produced %w", err)
	}
	res.CostAfter = m.ScheduleCost(repaired)
	summarize(m, res)
	return res, nil
}

func summarize(m *cost.Model, res *Result) {
	ar := analysis.Summarize(m, res.Schedule)
	res.Copies = ar.Copies
	res.HitRatePct = 100 * ar.HitRate()
}

// skeleton builds the surviving part of the schedule: missed deliveries
// removed (they become the work list), dead residencies truncated to their
// surviving readers or dropped, indices remapped. The returned map records,
// per surviving-but-dead copy (remapped ref), the instant its data is lost:
// re-sourcing must not point any service starting at or after that instant
// at the copy, since it holds only a prefix of the file from then on.
func skeleton(s *schedule.Schedule, imp *faults.Impact) (*schedule.Schedule, []workload.Request, map[occupancy.Ref]simtime.Time) {
	out := schedule.New()
	var work []workload.Request
	deadAt := make(map[occupancy.Ref]simtime.Time)
	for _, vid := range s.VideoIDs() {
		fs := s.Files[vid]
		nf := &schedule.FileSchedule{Video: vid}

		// Keep every delivery that is not missed; collect the missed ones
		// as repair work. delMap remaps old delivery indices.
		delMap := make([]int, len(fs.Deliveries))
		for di, d := range fs.Deliveries {
			if imp.Delivery(vid, di).Fate == faults.FateMissed {
				delMap[di] = -1
				work = append(work, workload.Request{User: d.User, Video: d.Video, Start: d.Start})
				continue
			}
			delMap[di] = len(nf.Deliveries)
			d.Route = d.Route.Clone()
			nf.Deliveries = append(nf.Deliveries, d)
		}

		// Keep residencies whose data survives, truncating spans to the
		// latest surviving reader. resMap remaps old residency indices.
		readers := make([]int, len(fs.Residencies))
		lastRead := make([]simtime.Time, len(fs.Residencies))
		for di, d := range fs.Deliveries {
			if sr := d.SourceResidency; sr != schedule.NoResidency && delMap[di] != -1 {
				readers[sr]++
				lastRead[sr] = max(lastRead[sr], d.Start)
			}
		}
		resMap := make([]int, len(fs.Residencies))
		for j, c := range fs.Residencies {
			resMap[j] = -1
			ri := imp.Residency(vid, j)
			preplaced := c.FedBy == schedule.PrePlacedFeed
			if ri.Dead && ri.DeadAt <= c.Load {
				continue // never written; nothing to keep
			}
			if !preplaced && delMap[c.FedBy] == -1 {
				continue // feed never flows; nothing to keep
			}
			if preplaced {
				// A standing copy's span is planned infrastructure: keep
				// it (served or not), truncated to the death instant if
				// the scenario kills it.
				c.LastService = min(c.LastService, lastOr(ri, c.LastService))
			} else {
				if readers[j] == 0 {
					continue // no surviving reader; drop like prune would
				}
				c.LastService = max(c.Load, lastRead[j])
			}
			if !preplaced {
				c.FedBy = delMap[c.FedBy]
			}
			resMap[j] = len(nf.Residencies)
			if ri.Dead {
				deadAt[occupancy.Ref{Video: vid, Index: resMap[j]}] = ri.DeadAt
			}
			nf.Residencies = append(nf.Residencies, c)
		}

		// Point surviving deliveries at the remapped residencies.
		for i := range nf.Deliveries {
			if sr := nf.Deliveries[i].SourceResidency; sr != schedule.NoResidency {
				nf.Deliveries[i].SourceResidency = resMap[sr]
			}
		}
		if len(nf.Deliveries) > 0 || len(nf.Residencies) > 0 {
			out.Put(nf)
		}
	}
	return out, work, deadAt
}

func lastOr(ri faults.ResidencyImpact, fallback simtime.Time) simtime.Time {
	if ri.Dead {
		return ri.DeadAt
	}
	return fallback
}

// resource serves one knocked-out request from the cheapest surviving
// option, mutating the repaired schedule and the ledger. It returns
// (reason, false) when no option survives the scenario.
func resource(m *cost.Model, repaired *schedule.Schedule, ledger *occupancy.Ledger,
	bans []occupancy.Banned, deadAt map[occupancy.Ref]simtime.Time, sc *faults.Scenario,
	r workload.Request, opts Options, res *Result) (string, bool) {

	topo := m.Book().Topology()
	book := m.Book()
	v := m.Catalog().Video(r.Video)
	dst := topo.User(r.User).Local
	window := simtime.NewInterval(r.Start, r.Start.Add(v.Playback))
	if sc.NodeDown(dst, window) {
		return fmt.Sprintf("destination storage %d down during playback", dst), false
	}
	// An edge is unusable if it or either endpoint is down at any point
	// of the playback window: streams hold their route for the full P.
	avoid := func(edgeIdx int) bool {
		if sc.EdgeDown(edgeIdx, window) {
			return true
		}
		e := topo.Edge(edgeIdx)
		return sc.NodeDown(e.A, window) || sc.NodeDown(e.B, window)
	}
	volume := v.StreamBytes().Float()

	fs := repaired.File(r.Video)
	if fs == nil {
		fs = &schedule.FileSchedule{Video: r.Video}
		repaired.Put(fs)
	}

	// Candidate 0: warehouse fallback on a fault-avoiding route. Repair
	// prices re-routed streams per-hop (the summed surviving-route rate).
	type candidate struct {
		route routing.Route
		resj  int
		cost  units.Money
	}
	var best *candidate
	if !sc.VWBrownedOutAt(r.Start) {
		if route, rate, err := routing.RouteAvoiding(book, topo.Warehouse(), dst, avoid); err == nil {
			best = &candidate{route: route, resj: schedule.NoResidency,
				cost: units.Money(volume * float64(rate))}
		}
	}
	if opts.Policy == Reroute {
		for j := range fs.Residencies {
			c := fs.Residencies[j]
			if c.Load > r.Start {
				continue // copy does not exist yet at service time
			}
			if sc.NodeDown(c.Loc, window) {
				continue // the source must stream for the whole playback
			}
			if at, dead := deadAt[occupancy.Ref{Video: r.Video, Index: j}]; dead && r.Start >= at {
				continue // the copy holds only a prefix from its death on
			}
			var candCost units.Money
			ext := c
			if c.FedBy == schedule.PrePlacedFeed {
				if r.Start > c.LastService {
					continue // standing copies are never extended
				}
			} else if r.Start > c.LastService {
				ext.LastService = r.Start
				// The extended profile may not reach into an outage of
				// its host (the data would be wiped mid-span) and must
				// fit the host's remaining capacity.
				if violatesAny(ext, v.Playback, bans) {
					continue
				}
				ref := occupancy.Ref{Video: r.Video, Index: j}
				if !ledger.CanFitExcluding(ext, &ref) {
					continue
				}
				candCost = m.ExtendCost(c, r.Start)
			}
			route, rate, err := routing.RouteAvoiding(book, c.Loc, dst, avoid)
			if err != nil {
				continue
			}
			candCost += units.Money(volume * float64(rate))
			if best == nil || candCost < best.cost-moneyEps {
				best = &candidate{route: route, resj: j, cost: candCost}
			}
		}
	}
	if best == nil {
		return "no surviving source: warehouse unavailable and no reachable cached copy", false
	}

	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: r.Video, User: r.User, Start: r.Start,
		Route: best.route, SourceResidency: best.resj,
	})
	if best.resj == schedule.NoResidency {
		res.FromVW++
	} else {
		c := &fs.Residencies[best.resj]
		if c.FedBy != schedule.PrePlacedFeed && r.Start > c.LastService {
			c.LastService = r.Start
		}
		ledger.Update(occupancy.Ref{Video: r.Video, Index: best.resj}, *c)
		res.FromCache++
	}
	res.Repaired++
	return "", true
}

func violatesAny(c schedule.Residency, playback simtime.Duration, bans []occupancy.Banned) bool {
	for _, bn := range bans {
		if bn.Violates(c, playback) {
			return true
		}
	}
	return false
}
