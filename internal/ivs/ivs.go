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
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// A rejective run builds its result in a file of its video handed
	// back with Recycle, when there is one.
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
type copyKey struct {
	loc  topology.NodeID
	load simtime.Time
}

func compareKeys(a, b copyKey) int {
	if a.loc != b.loc {
		return cmp.Compare(a.loc, b.loc)
	}
	return cmp.Compare(a.load, b.load)
}

// scratch is the working state of one ScheduleFile run: everything the
// greedy needs while it decides and nothing its result keeps. Runs take one
// from scratchPool and hand it back, so the arrays grow to the largest run
// they have served and stop allocating there; the result is copied out of
// them at its exact size (prune).
type scratch struct {
	// res holds the file's residencies while the greedy runs: the frozen
	// prefix, the seeds, then every tentative it opens, most of which
	// prune drops.
	res []schedule.Residency
	// oldCosts[j] caches res[j]'s current span cost — the subtrahend of
	// every candidate price (cost.CandidateCost). Maintained on extension
	// and on tentative open, it halves the SpanCost work in the candidate
	// loop.
	oldCosts []units.Money
	// readers[j] counts the run's deliveries drawing from res[j] (prune).
	readers []int
	// remap is prune's old-to-new index map, -1 for a dropped residency.
	remap []int
	// pre and last are the set of (node, load) keys in res, maintained
	// incrementally — residencies are only ever appended during the greedy,
	// so membership never goes stale — where a per-candidate scan of res
	// made ScheduleFile quadratic in request count on long-route
	// topologies. pre holds the keys of the residencies the run starts
	// with, sorted. last holds per node the load of the latest tentative
	// opened there: tentatives are opened at the start of the request being
	// served, and requests are served chronologically, so a node's
	// tentatives have non-decreasing loads and the latest one tells whether
	// one at the current start exists.
	pre  []copyKey
	last []lastTentative
}

type lastTentative struct {
	load simtime.Time
	ok   bool
}

// scratchPool recycles scratches across runs: a mutex and a LIFO free list,
// so what a run allocates repeats exactly (a sync.Pool's reuse would depend
// on GC timing). Bounded by count, enough for every worker of a parallel
// phase; a scratch handed back beyond the bound is left to the collector.
var scratchPool struct {
	sync.Mutex
	free []*scratch
}

const maxPooledScratch = 32

func takeScratch() *scratch {
	scratchPool.Lock()
	defer scratchPool.Unlock()
	k := len(scratchPool.free)
	if k == 0 {
		return new(scratch)
	}
	sc := scratchPool.free[k-1]
	scratchPool.free = scratchPool.free[:k-1]
	return sc
}

// release hands the scratch back, its residencies dropped for the next run
// to start from. The scratch holds no pointers, so nothing needs clearing.
func (sc *scratch) release() {
	sc.res = sc.res[:0]
	scratchPool.Lock()
	if len(scratchPool.free) < maxPooledScratch {
		scratchPool.free = append(scratchPool.free, sc)
	}
	scratchPool.Unlock()
}

// filePool holds the files of dead results, per video, for rejective runs to
// build their results in (Recycle). Like scratchPool it is a mutex and a LIFO
// list, not a sync.Pool, and it is bounded by count: a file handed back
// beyond the bound is left to the collector.
var filePool struct {
	sync.Mutex
	free map[media.VideoID][]*schedule.FileSchedule
	n    int
}

const maxPooledFiles = 1024

// Recycle hands back a file schedule nobody reads any more: not its owner,
// not a schedule that holds it, not a caller that kept one of its slices. A
// later rejective run of the same video (Options.Ledger set) builds its
// result in the file's storage, overwriting it. Only the record arrays are
// reused; what their records point to (routes) is not written.
// A nil file is ignored.
func Recycle(fs *schedule.FileSchedule) {
	if fs == nil {
		return
	}
	filePool.Lock()
	defer filePool.Unlock()
	if filePool.n >= maxPooledFiles {
		return
	}
	if filePool.free == nil {
		filePool.free = make(map[media.VideoID][]*schedule.FileSchedule)
	}
	filePool.free[fs.Video] = append(filePool.free[fs.Video], fs)
	filePool.n++
}

// takeFile returns the file of the video handed back last, or nil.
func takeFile(video media.VideoID) *schedule.FileSchedule {
	filePool.Lock()
	defer filePool.Unlock()
	fss := filePool.free[video]
	k := len(fss)
	if k == 0 {
		return nil
	}
	fs := fss[k-1]
	fss[k-1] = nil
	filePool.free[video] = fss[:k-1]
	filePool.n--
	return fs
}

// index builds the key set, the span-cost cache and the zeroed reader
// counts of the residencies the run starts with.
func (sc *scratch) index(m *cost.Model, v media.Video, nodes int) {
	sc.readers = slices.Grow(sc.readers[:0], len(sc.res))[:len(sc.res)]
	clear(sc.readers)
	sc.pre, sc.oldCosts = sc.pre[:0], sc.oldCosts[:0]
	for j := range sc.res {
		c := &sc.res[j]
		sc.pre = append(sc.pre, copyKey{c.Loc, c.Load})
		sc.oldCosts = append(sc.oldCosts, cost.SpanCost(m.Book().SRate(c.Loc), v.Size, v.Playback, c.Span()))
	}
	slices.SortFunc(sc.pre, compareKeys)
	sc.last = slices.Grow(sc.last[:0], nodes)[:nodes]
	clear(sc.last)
}

// holds reports whether res already has a copy under the key.
func (sc *scratch) holds(k copyKey) bool {
	if t := sc.last[k.loc]; t.ok && t.load == k.load {
		return true
	}
	_, found := slices.BinarySearchFunc(sc.pre, k, compareKeys)
	return found
}

// ScheduleFile computes the schedule S_i for one file's request set. The
// requests must all name the given video; they are served in chronological
// order (the paper numbers users by service start time). The returned
// schedule is pruned: every residency serves at least one delivery. It owns
// its record arrays, sized exactly unless it was built in a recycled file.
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

	sc := takeScratch()
	defer sc.release()
	fs := &schedule.FileSchedule{Video: video}
	// A rejective run's result is usually scored and thrown away (sorp
	// evaluates every candidate victim with one), so it is built in the
	// storage of a dead result of the video when one was handed back. Phase
	// 1's results are all kept, and take nothing.
	var dead schedule.FileSchedule
	recycled := false
	if opts.Ledger != nil {
		if f := takeFile(video); f != nil {
			dead, recycled = *f, true
			*f = schedule.FileSchedule{Video: video}
			fs = f
		}
	}
	if pre := opts.Frozen; pre != nil {
		if len(opts.Seeds) > 0 {
			return nil, fmt.Errorf("ivs: Frozen and Seeds are mutually exclusive")
		}
		if pre.Video != video {
			return nil, fmt.Errorf("ivs: frozen prefix for video %d in schedule for video %d", pre.Video, video)
		}
		// The prefix is copied once into the result — the only copy of it an
		// epoch close keeps (DESIGN.md §7). A frozen delivery keeps sharing
		// its Route (routes are immutable: writers Clone or replace,
		// DESIGN.md §5).
		fs.Deliveries = append(room(dead.Deliveries, recycled, len(pre.Deliveries)+len(ordered)), pre.Deliveries...)
		sc.res = append(sc.res, pre.Residencies...)
		opts.frozenRes = len(sc.res)
		if opts.Ledger != nil {
			for j, c := range sc.res {
				opts.Ledger.Add(occupancy.Ref{Video: video, Index: j}, c)
			}
		}
	} else if len(ordered) > 0 {
		fs.Deliveries = room(dead.Deliveries, recycled, len(ordered))
	}
	for _, seed := range opts.Seeds {
		if seed.Video != video {
			return nil, fmt.Errorf("ivs: seed for video %d in schedule for video %d", seed.Video, video)
		}
		if seed.FedBy != schedule.PrePlacedFeed {
			return nil, fmt.Errorf("ivs: seed at node %d is not marked pre-placed", seed.Loc)
		}
		sc.res = append(sc.res, seed)
		if opts.Ledger != nil {
			opts.Ledger.Add(occupancy.Ref{Video: video, Index: len(sc.res) - 1}, seed)
		}
	}
	sc.index(m, v, topo.NumNodes())
	for _, r := range ordered {
		if r.Video != video {
			return nil, fmt.Errorf("ivs: request for video %d in batch for video %d", r.Video, video)
		}
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			return nil, fmt.Errorf("ivs: unknown user %d", r.User)
		}
		if err := serveOne(m, v, stream, fs, r, opts, sc); err != nil {
			return nil, err
		}
	}
	// A file that could hold no copy at all — nothing frozen, no seeds, and
	// no tentative to open — has no residency array; one whose copies were
	// all pruned has an empty one. The two encode differently (null, []),
	// and a plan's bytes must not depend on how the run was carried out.
	none := opts.Frozen == nil && len(opts.Seeds) == 0 && (opts.Policy == NoCaching || len(ordered) == 0)
	sc.prune(fs, dead.Residencies, recycled, none, opts.Ledger, opts.frozenRes)
	return fs, nil
}

// room returns an empty, non-nil slice with capacity for n records: a dead
// file's array when it is large enough, otherwise a new one — of exactly n,
// or with a quarter of headroom when the run is recycling (the video's next
// evaluation, a close later, carries a slightly longer prefix).
func room[T any](dead []T, recycled bool, n int) []T {
	if cap(dead) > 0 && cap(dead) >= n {
		return dead[:0]
	}
	if recycled {
		return make([]T, 0, n+n/4)
	}
	return make([]T, 0, n)
}

// serveOne schedules request r given the partial schedule — fs's
// deliveries and sc's residencies — choosing the minimum-incremental-cost
// supply point (paper §3.2 steps 2–3). stream is the video's precomputed
// StreamBytes().Float(), hoisted out of the candidate loop (every candidate
// is priced, so the per-candidate work is pure rate arithmetic).
func serveOne(m *cost.Model, v media.Video, stream float64, fs *schedule.FileSchedule, r workload.Request, opts Options, sc *scratch) error {
	topo := m.Book().Topology()
	dst := topo.User(r.User).Local

	// Candidate 0: direct from the warehouse (always feasible — the
	// warehouse stores everything and a direct stream uses no storage).
	bestSrc := topo.Warehouse()
	bestRes := schedule.NoResidency
	bestCost := m.StreamCost(stream, topo.Warehouse(), dst)

	for j := range sc.res {
		c := &sc.res[j]
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
		candCost := m.CandidateCost(&v, stream, sc.oldCosts[j], c, newLast, dst)
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
		c := &sc.res[bestRes]
		sc.readers[bestRes]++
		if r.Start > c.LastService {
			c.LastService = r.Start
			sc.oldCosts[bestRes] = cost.SpanCost(m.Book().SRate(c.Loc), v.Size, v.Playback, c.Span())
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

	openTentative(m, v, fs, di, opts, sc)
	return nil
}

// openTentative opens zero-span residencies along the new delivery's route
// per the caching policy. Zero-span copies cost nothing and occupy nothing,
// so they are free options for later requests; unused ones are pruned.
func openTentative(m *cost.Model, v media.Video, fs *schedule.FileSchedule, di int, opts Options, sc *scratch) {
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
		if sc.holds(copyKey{node, d.Start}) {
			continue
		}
		cand := schedule.Residency{
			Video: v.ID, Loc: node, Src: d.Src(),
			Load: d.Start, LastService: d.Start, FedBy: di,
		}
		if violatesAny(opts, cand, v.Playback) {
			continue
		}
		sc.res = append(sc.res, cand)
		sc.oldCosts = append(sc.oldCosts, 0) // zero span: SpanCost is exactly 0
		sc.readers = append(sc.readers, 0)
		sc.last[node] = lastTentative{load: d.Start, ok: true}
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

// prune copies the residencies that serve a delivery out of the working
// array into fs — into dead when it is large enough, otherwise into a new
// array (room), or into none at all when none is set — remapping the
// surviving indices in Deliveries and the ledger. Pre-placed standing
// copies survive even when unused: their cost is already committed
// and the schedule must account for it truthfully. The same goes for the
// first frozen residencies of a rolling-horizon prefix: they are committed
// history, not tentative options (and since they lead the array, keeping
// them preserves their indices).
func (sc *scratch) prune(fs *schedule.FileSchedule, dead []schedule.Residency, recycled, none bool, ledger *occupancy.Ledger, frozen int) {
	sc.remap = slices.Grow(sc.remap[:0], len(sc.res))[:len(sc.res)]
	kept := 0
	for j := range sc.res {
		c := &sc.res[j]
		if j >= frozen && sc.readers[j] == 0 && c.FedBy != schedule.PrePlacedFeed {
			sc.remap[j] = -1
			continue
		}
		sc.remap[j] = kept
		kept++
	}
	if !none {
		fs.Residencies = room(dead, recycled, kept)
		for j := range sc.res {
			if sc.remap[j] >= 0 {
				fs.Residencies = append(fs.Residencies, sc.res[j])
			}
		}
	}
	for i := range fs.Deliveries {
		if sr := fs.Deliveries[i].SourceResidency; sr != schedule.NoResidency {
			fs.Deliveries[i].SourceResidency = sc.remap[sr]
		}
	}
	if ledger != nil {
		ledger.RemoveVideo(fs.Video)
		for j, c := range fs.Residencies {
			ledger.Add(occupancy.Ref{Video: fs.Video, Index: j}, c)
		}
	}
}
