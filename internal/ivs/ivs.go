// Package ivs implements the Individual Video Scheduling phase of the
// paper's two-phase heuristic (§3.2): the greedy find_video_schedule that
// arranges the deliveries and residencies of one file's request set,
// serving requests chronologically and choosing for each the supply point
// with minimum incremental cost.
//
// The key mechanism is the tentative cache: the storage cost of a residency
// (Eq. 2–3) is zero at span Δ = 0, so whenever a stream is scheduled the
// greedy opens free zero-span residencies at every intermediate storage the
// stream touches. Later requests may then be served by extending one of
// those copies — paying the marginal storage cost Ψc(Δ′) − Ψc(Δ) plus the
// remaining network transfer — or directly from the warehouse, whichever is
// cheaper. Residencies that never serve anyone are pruned afterwards. This
// is exactly the paper's step "(1) extend the resident period, (2)
// introduce another intermediate storage, or (3) service from VW", and it
// reproduces the paper's Fig. 2 example (schedule S2) to the cent.
//
// The same greedy, parameterized with capacity constraints and a banned
// (interval, storage) pair, is the Rejective Greedy of phase 2 (§4.4).
package ivs

import (
	"fmt"
	"slices"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Policy selects where tentative caches are opened.
type Policy int

const (
	// CacheOnRoute opens a tentative residency at every intermediate
	// storage a scheduled stream touches (destination included). This is
	// the default and the paper-faithful behaviour: any storage a stream
	// passes can copy its blocks.
	CacheOnRoute Policy = iota
	// CacheAtDestination opens a tentative residency only at the stream's
	// destination storage. An ablation of the en-route caching mechanism.
	CacheAtDestination
	// NoCaching never caches: every request is served by a direct stream
	// from the warehouse. This is the paper's "network only system"
	// baseline (Figs. 5 and 7).
	NoCaching
)

func (p Policy) String() string {
	switch p {
	case CacheOnRoute:
		return "cache-on-route"
	case CacheAtDestination:
		return "cache-at-destination"
	case NoCaching:
		return "no-caching"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name as String spells it.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{CacheOnRoute, CacheAtDestination, NoCaching} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// Options configures one ScheduleFile run.
type Options struct {
	// Policy selects the caching behaviour (default CacheOnRoute).
	Policy Policy
	// Ledger, when non-nil, makes the greedy rejective (paper §4.4): a
	// copy is never placed or extended beyond what the storages' remaining
	// capacity admits. The ledger must hold the residencies of all OTHER
	// files; this file's own copies are registered into it as scheduling
	// proceeds, so on return the ledger reflects the produced schedule.
	Ledger *occupancy.Ledger
	// Banned lists (interval, storage) pairs the file must not occupy,
	// the constraint imposed on the overflow victim (paper §4.2).
	Banned []occupancy.Banned
	// Seeds are pre-placed standing copies of this video (strategic
	// replication): already paid for over their whole span, so serving
	// from one costs only the remaining network transfer. Seeds are
	// never pruned, never extended, and exempt from Banned (they are
	// placed infrastructure, not a scheduling choice).
	Seeds []schedule.Residency
	// Frozen, when non-nil, is the immutable prefix of this file's
	// schedule committed by earlier epochs of a rolling-horizon run (see
	// internal/horizon). ScheduleFile starts from a copy of it and never
	// writes through it (only the immutable routes are shared):
	// frozen deliveries are carried through untouched, and frozen
	// residencies remain in the candidate pool as free cache-extension
	// sources — their committed span is a sunk cost, so serving a new
	// request from one is priced at the marginal ExtendCost plus the
	// remaining transfer, exactly like any live copy. Frozen records are
	// never pruned and never shrunk; new records are appended after the
	// prefix so frozen records keep their indices. Mutually exclusive
	// with Seeds (a committed prefix already carries its seeds).
	Frozen *schedule.FileSchedule
	// Spare, when non-nil, is a file schedule nobody reads any more. A run
	// that starts from a Frozen prefix builds its result in Spare's record
	// arrays where they are large enough instead of allocating its own, so
	// a caller that re-plans the same file many times (sorp) pays for the
	// prefix copy's storage once.
	Spare *schedule.FileSchedule

	// frozenRes is the number of leading residencies that belong to the
	// frozen prefix, set internally by ScheduleFile.
	frozenRes int
}

// moneyEps breaks cost ties deterministically: candidates within this
// amount are considered equal and the earlier one wins.
const moneyEps = 1e-9

// copyKey identifies a residency by (node, load time) for duplicate
// suppression: a new tentative copy with the identical key could never
// improve on the existing one, since extension cost depends only on the
// load time and the location. A node MAY hold several copies with
// different load times: a fresh copy loaded by a later stream offers
// cheaper short-residency extensions than an old copy whose span has
// already grown long.
//
// The set is maintained incrementally by ScheduleFile — residencies are
// only ever appended during the greedy, so membership never goes stale —
// replacing a per-candidate linear scan over all residencies that made
// ScheduleFile quadratic in request count on long-route topologies.
type copyKey struct {
	loc  topology.NodeID
	load simtime.Time
}

// ScheduleFile computes the schedule S_i for one file's request set. The
// requests must all name the given video; they are served in chronological
// order (the paper numbers users by service start time). The returned
// schedule is pruned: every residency serves at least one delivery.
func ScheduleFile(m *cost.Model, video media.VideoID, reqs []workload.Request, opts Options) (*schedule.FileSchedule, error) {
	topo := m.Book().Topology()
	v := m.Catalog().Video(video)
	stream := v.StreamBytes().Float()
	// Callers on the hot path (a horizon epoch, and SORP re-evaluating the
	// same request list every iteration) hand over an already chronological
	// slice; only an unordered one is copied and sorted.
	ordered := reqs
	if !workload.IsChronological(ordered) {
		ordered = append([]workload.Request(nil), reqs...)
		workload.SortChronological(ordered)
	}

	// One delivery per request, and at most one tentative per storage its
	// stream touches: sizing the slices up front keeps the serve loop's
	// appends from repeatedly regrowing them.
	bound := tentativeBound(m, ordered, opts.Policy)
	fs := &schedule.FileSchedule{Video: video}
	if pre := opts.Frozen; pre != nil {
		if len(opts.Seeds) > 0 {
			return nil, fmt.Errorf("ivs: Frozen and Seeds are mutually exclusive")
		}
		if pre.Video != video {
			return nil, fmt.Errorf("ivs: frozen prefix for video %d in schedule for video %d", pre.Video, video)
		}
		// The prefix is copied once — the only copy an epoch close makes of
		// it (DESIGN.md §7) — straight into slices with room for the serve
		// loop's appends. A frozen delivery keeps sharing its Route (routes
		// are immutable: writers Clone or replace, DESIGN.md §5); a frozen
		// residency gets its own Services, which the greedy appends to.
		var spare schedule.FileSchedule
		if opts.Spare != nil {
			spare = *opts.Spare
		}
		fs.Deliveries = append(room(spare.Deliveries, len(pre.Deliveries)+len(ordered)), pre.Deliveries...)
		fs.Residencies = append(room(spare.Residencies, len(pre.Residencies)+bound), pre.Residencies...)
		opts.frozenRes = len(fs.Residencies)
		for j := range fs.Residencies {
			c := &fs.Residencies[j]
			c.Services = append([]int(nil), c.Services...)
			if opts.Ledger != nil {
				opts.Ledger.Add(occupancy.Ref{Video: video, Index: j}, *c)
			}
		}
	}
	for _, seed := range opts.Seeds {
		if seed.Video != video {
			return nil, fmt.Errorf("ivs: seed for video %d in schedule for video %d", seed.Video, video)
		}
		if seed.FedBy != schedule.PrePlacedFeed {
			return nil, fmt.Errorf("ivs: seed at node %d is not marked pre-placed", seed.Loc)
		}
		seed.Services = nil
		fs.Residencies = append(fs.Residencies, seed)
		if opts.Ledger != nil {
			opts.Ledger.Add(occupancy.Ref{Video: video, Index: len(fs.Residencies) - 1}, seed)
		}
	}
	fs.Deliveries = slices.Grow(fs.Deliveries, len(ordered))
	fs.Residencies = slices.Grow(fs.Residencies, bound)
	seen := make(map[copyKey]struct{}, len(fs.Residencies)+len(ordered))
	for _, c := range fs.Residencies {
		seen[copyKey{c.Loc, c.Load}] = struct{}{}
	}
	// oldCosts[j] caches fs.Residencies[j]'s current span cost — the
	// subtrahend of every candidate price (cost.CandidateCost). Maintained
	// on extension and on tentative open, it halves the SpanCost work in
	// the candidate loop.
	oldCosts := make([]units.Money, len(fs.Residencies), cap(fs.Residencies))
	for j := range fs.Residencies {
		c := &fs.Residencies[j]
		oldCosts[j] = cost.SpanCost(m.Book().SRate(c.Loc), v.Size, v.Playback, c.Span())
	}
	for _, r := range ordered {
		if r.Video != video {
			return nil, fmt.Errorf("ivs: request for video %d in batch for video %d", r.Video, video)
		}
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			return nil, fmt.Errorf("ivs: unknown user %d", r.User)
		}
		if err := serveOne(m, v, stream, fs, r, opts, seen, &oldCosts); err != nil {
			return nil, err
		}
	}
	prune(fs, video, opts.Ledger, opts.frozenRes)
	return fs, nil
}

// room returns an empty, non-nil slice with capacity for n records: the
// spare array when it is large enough, otherwise a new one.
func room[T any](spare []T, n int) []T {
	if cap(spare) > 0 && cap(spare) >= n {
		return spare[:0]
	}
	return make([]T, 0, n)
}

// tentativeBound bounds the tentatives the requests' deliveries can open
// under the policy: one per storage on the route. The greedy only picks a
// source whose stream is cheaper than the warehouse's, so the warehouse
// route to each destination is the longest it takes (exactly so under
// per-hop rates; a sizing hint, not a limit, under any other book).
func tentativeBound(m *cost.Model, reqs []workload.Request, policy Policy) int {
	switch policy {
	case NoCaching:
		return 0
	case CacheAtDestination:
		return len(reqs)
	}
	topo := m.Book().Topology()
	n := 0
	for _, r := range reqs {
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			continue // rejected by the serve loop
		}
		if route, err := m.Table().Route(topo.Warehouse(), topo.User(r.User).Local); err == nil {
			n += route.Hops()
		}
	}
	return n
}

// serveOne schedules request r given the partial schedule fs, choosing the
// minimum-incremental-cost supply point (paper §3.2 steps 2–3). seen is
// the incremental (node, load) index of fs.Residencies; stream is the
// video's precomputed StreamBytes().Float(), hoisted out of the candidate
// loop (every candidate is priced, so the per-candidate work is pure rate
// arithmetic).
func serveOne(m *cost.Model, v media.Video, stream float64, fs *schedule.FileSchedule, r workload.Request, opts Options, seen map[copyKey]struct{}, oldCosts *[]units.Money) error {
	topo := m.Book().Topology()
	dst := topo.User(r.User).Local

	// Candidate 0: direct from the warehouse (always feasible — the
	// warehouse stores everything and a direct stream uses no storage).
	bestSrc := topo.Warehouse()
	bestRes := schedule.NoResidency
	bestCost := m.StreamCost(stream, topo.Warehouse(), dst)

	for j := range fs.Residencies {
		c := &fs.Residencies[j]
		if c.Load > r.Start {
			continue // copy does not exist yet at service time
		}
		if c.FedBy == schedule.PrePlacedFeed {
			// Standing copy: usable within its paid-for span at zero
			// marginal storage cost regardless of the caching policy
			// (it is placed infrastructure, not a scheduling choice);
			// never extended, banned or capacity-checked.
			if r.Start > c.LastService {
				continue
			}
			candCost := m.StreamCost(stream, c.Loc, dst)
			if candCost < bestCost-moneyEps {
				bestCost = candCost
				bestSrc = c.Loc
				bestRes = j
			}
			continue
		}
		if opts.Policy == NoCaching {
			continue // dynamic copies disabled
		}
		// Price first: the capacity and ban checks are the expensive
		// part, and only candidates that would win need them. A request
		// falling inside the copy's committed span (possible when the
		// copy is a frozen-prefix record from an earlier epoch) extends
		// nothing and pays zero marginal storage.
		newLast := simtime.Max(c.LastService, r.Start)
		candCost := m.CandidateCost(&v, stream, (*oldCosts)[j], c, newLast, dst)
		if candCost >= bestCost-moneyEps {
			continue
		}
		extended := *c
		extended.LastService = newLast
		if violatesAny(opts, extended, v.Playback) {
			continue
		}
		if opts.Ledger != nil {
			ref := occupancy.Ref{Video: v.ID, Index: j}
			if !opts.Ledger.CanFitExcluding(extended, &ref) {
				continue
			}
		}
		bestCost = candCost
		bestSrc = c.Loc
		bestRes = j
	}

	route, err := m.Table().Route(bestSrc, dst)
	if err != nil {
		return fmt.Errorf("ivs: %w", err)
	}
	di := len(fs.Deliveries)
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: v.ID, User: r.User, Start: r.Start,
		Route: route, SourceResidency: bestRes,
	})

	if bestRes != schedule.NoResidency {
		c := &fs.Residencies[bestRes]
		c.Services = append(c.Services, di)
		if r.Start > c.LastService {
			c.LastService = r.Start
			(*oldCosts)[bestRes] = cost.SpanCost(m.Book().SRate(c.Loc), v.Size, v.Playback, c.Span())
		}
		if opts.Ledger != nil {
			// Tentatives are not registered at open time (they occupy
			// nothing — see openTentative), so the first extension of one
			// installs it here instead of updating it.
			ref := occupancy.Ref{Video: v.ID, Index: bestRes}
			if !opts.Ledger.Update(ref, *c) {
				opts.Ledger.Add(ref, *c)
			}
		}
	}

	openTentative(m, v, fs, di, opts, seen, oldCosts)
	return nil
}

// openTentative opens zero-span residencies along the new delivery's route
// per the caching policy. Zero-span copies cost nothing and occupy nothing,
// so they are free options for later requests; unused ones are pruned.
func openTentative(m *cost.Model, v media.Video, fs *schedule.FileSchedule, di int, opts Options, seen map[copyKey]struct{}, oldCosts *[]units.Money) {
	if opts.Policy == NoCaching {
		return
	}
	topo := m.Book().Topology()
	d := fs.Deliveries[di]
	for _, node := range d.Route {
		if node == d.Src() {
			continue // the source already holds the file
		}
		if opts.Policy == CacheAtDestination && node != d.Dst() {
			continue
		}
		if topo.Node(node).Kind != topology.KindStorage {
			continue
		}
		key := copyKey{node, d.Start}
		if _, dup := seen[key]; dup {
			continue
		}
		cand := schedule.Residency{
			Video: v.ID, Loc: node, Src: d.Src(),
			Load: d.Start, LastService: d.Start, FedBy: di,
		}
		if violatesAny(opts, cand, v.Playback) {
			continue
		}
		fs.Residencies = append(fs.Residencies, cand)
		*oldCosts = append(*oldCosts, 0) // zero span: SpanCost is exactly 0
		seen[key] = struct{}{}
		// The ledger is deliberately NOT told about the tentative: a
		// zero-span copy peaks at γ=0 and occupies nothing, so registering
		// it would change no query answer while costing an entry append on
		// every route node of every request. serveOne installs the copy on
		// its first extension; unused tentatives never reach the ledger at
		// all.
	}
}

// violatesAny asks every ban about the copy — through the ledger when the
// greedy is rejective, so that a recording view sees both kinds of question
// its evaluation put to the outside (occupancy.ProbeLog).
func violatesAny(opts Options, c schedule.Residency, playback simtime.Duration) bool {
	for _, bn := range opts.Banned {
		if opts.Ledger != nil {
			if opts.Ledger.Violates(bn, c, playback) {
				return true
			}
		} else if bn.Violates(c, playback) {
			return true
		}
	}
	return false
}

// prune removes residencies that serve no deliveries, remapping the
// surviving indices in Deliveries and the ledger. Pre-placed standing
// copies survive even when unused: their cost is already committed and
// the schedule must account for it truthfully. The same goes for the
// first frozen residencies of a rolling-horizon prefix: they are
// committed history, not tentative options (and since they lead the
// slice, keeping them preserves their indices).
func prune(fs *schedule.FileSchedule, video media.VideoID, ledger *occupancy.Ledger, frozen int) {
	remap := make([]int, len(fs.Residencies))
	kept := fs.Residencies[:0]
	for j := range fs.Residencies {
		if j >= frozen && len(fs.Residencies[j].Services) == 0 && fs.Residencies[j].FedBy != schedule.PrePlacedFeed {
			remap[j] = -1
			continue
		}
		remap[j] = len(kept)
		kept = append(kept, fs.Residencies[j])
	}
	fs.Residencies = kept
	for i := range fs.Deliveries {
		if sr := fs.Deliveries[i].SourceResidency; sr != schedule.NoResidency {
			fs.Deliveries[i].SourceResidency = remap[sr]
		}
	}
	if ledger != nil {
		ledger.RemoveVideo(video)
		for j, c := range fs.Residencies {
			ledger.Add(occupancy.Ref{Video: video, Index: j}, c)
		}
	}
}

// Direct returns the no-caching baseline schedule for one file: every
// request served by a direct warehouse stream (the "network only system").
func Direct(m *cost.Model, video media.VideoID, reqs []workload.Request) (*schedule.FileSchedule, error) {
	return ScheduleFile(m, video, reqs, Options{Policy: NoCaching})
}

// Cost is a convenience wrapper returning Ψ(S_i) for a file schedule,
// guarding against the NaN/Inf poisoning that would silently corrupt
// greedy comparisons.
func Cost(m *cost.Model, fs *schedule.FileSchedule) (units.Money, error) {
	c := m.FileCost(fs)
	if !c.IsFinite() || c < 0 {
		return 0, fmt.Errorf("ivs: non-finite or negative schedule cost %v", c)
	}
	return c, nil
}
