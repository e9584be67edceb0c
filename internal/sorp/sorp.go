// Package sorp implements the Storage Overflow Resolution phase of the
// paper's heuristic (§4): after the individually-scheduled files are
// integrated, some intermediate storages may be over-committed during some
// intervals. SORP repeatedly selects the victim file whose rescheduling
// yields the most improvement per unit of overhead — measured by one of
// four heat metrics (Eqs. 8–11) — and recomputes its schedule with the
// Rejective Greedy (§4.4): the victim may not occupy the overflowing
// (interval, storage) pair and must respect the remaining capacity of every
// other storage.
//
// # Reuse across iterations
//
// Every iteration re-scores every (overflow, file) pair, but a commit
// almost never changes what a pair's reschedule would be: it moves a few
// storages' profiles without flipping any of the yes/no capacity answers
// the pair's greedy received, and it shrinks or splits the overflow's
// window without flipping any of the yes/no answers the ban gave it.
// ResolveContext therefore keeps a per-run table keyed by (overflow node,
// video) holding each evaluation's result next to the log of its capacity
// answers and the box of windows over which its ban answers repeat
// (occupancy.ProbeLog), and the next iteration reuses an entry when the
// file is unchanged, the box covers the overflow's current window and the
// log replays to the same answers on the current ledger — which makes the
// reschedule identical by induction over both kinds of question, so
// victims, schedule and cost are the ones a table-free run produces. The
// replays are most of a round's work. Most answers a replay re-asks are a
// "no" decided at the candidate's first instant, at a storage the overflow
// holds full, and many candidates share a storage, a delta and a start: a
// log answers those by group, one sweep entry and one check per group
// (ProbeLog.Replay). The replays run on the worker pool, one key's entries
// and logs to one worker: two jobs of a round share a key only where an
// overflow split at one storage, and that worker replays each log once for
// both (pairTable.replay). What must happen in order — taking
// a hit's result, retiring a broken entry, taking a miss's view — follows in
// one sequential pass in job order. The views the evaluations ran on are
// not kept — each goes back to the run's workspace when the next round
// starts or the run ends (Ledger.Release), for a later fresh evaluation to
// reuse — and every winner, evaluated this round or reused, is committed
// from its file schedule (Ledger.CommitFile). The table outlives its run: it
// is left, empty, in the run's workspace, and the next run on it takes it
// with its map, its per-key slices and its per-round scaffolding as grown
// (takeTable), so a solve does not rebuild the table its logs live in.
//
// Almost every evaluation's result is thrown away, and an evaluation of the
// same file needs the same room — on a rolling horizon, a copy of its frozen
// prefix. An entry that leaves the table, or is still in it when the run
// ends, therefore hands its file back to the workspace (pairTable.retire)
// for the video's next evaluation to be built in — except the file a commit
// hands to the working schedule, which is never recycled.
package sorp

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/parallel"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// HeatMetric selects the victim-ranking criterion (paper §4.3).
type HeatMetric int

const (
	// Period is Method 1 (Eq. 8): the length X of the improved period.
	Period HeatMetric = iota + 1
	// PeriodPerCost is Method 2 (Eq. 9): X divided by the overhead cost.
	PeriodPerCost
	// Space is Method 3 (Eq. 10): the amortized time–space product ΔS
	// removed from the overflow window (Eq. 5).
	Space
	// SpacePerCost is Method 4 (Eq. 11): ΔS divided by the overhead cost.
	// The paper finds it the best performer on average.
	SpacePerCost
)

func (h HeatMetric) String() string {
	switch h {
	case Period:
		return "period"
	case PeriodPerCost:
		return "period-per-cost"
	case Space:
		return "space"
	case SpacePerCost:
		return "space-per-cost"
	default:
		return fmt.Sprintf("HeatMetric(%d)", int(h))
	}
}

// ParseMetric resolves a metric name as String spells it.
func ParseMetric(s string) (HeatMetric, error) {
	for _, m := range []HeatMetric{Period, PeriodPerCost, Space, SpacePerCost} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown metric %q", s)
}

// Options configures a Resolve run.
type Options struct {
	// Metric ranks victims; defaults to SpacePerCost (Method 4).
	Metric HeatMetric
	// Policy is the caching policy handed to the rejective greedy.
	Policy ivs.Policy
	// Seeds are the pre-placed standing copies per video (strategic
	// replication). Rescheduling a victim re-seeds them: they are placed
	// infrastructure the resolver can neither move nor strip, so they are
	// never selected as victims.
	Seeds map[media.VideoID][]schedule.Residency
	// Frozen holds, per video, the immutable prefix committed by earlier
	// epochs of a rolling-horizon run (see internal/horizon). A frozen
	// prefix's records lead the file's slices; its residencies are never
	// selected as victims, and rescheduling a file re-plans only its
	// un-frozen requests on top of the prefix. The reqs map handed to
	// Resolve must then hold only the un-frozen requests of each file.
	Frozen map[media.VideoID]*schedule.FileSchedule
	// Folds holds, per video, the fold of Ψ's delivery costs over the first
	// deliveries of its frozen prefix (cost.Fold), which every file of the
	// input and of the result begins with; a file is priced on from it. A
	// video without one is priced from its first delivery.
	Folds map[media.VideoID]cost.Fold
	// Workspace holds what the evaluations reuse; nil takes one.
	Workspace *ivs.Workspace
}

// Result summarizes a resolution run.
type Result struct {
	Schedule         *schedule.Schedule
	Victims          []api.Victim
	InitialOverflows int
	CostBefore       units.Money
	CostAfter        units.Money
	api.Work
}

// Delta returns the total cost increase caused by overflow resolution,
// the paper's Ψ(S_SORP) − Ψ(S).
func (r *Result) Delta() units.Money { return r.CostAfter - r.CostBefore }

// Resolve runs the SORP loop on the integrated schedule s. The request
// partition must be the one the schedule was built from (rescheduling a
// victim re-serves its whole request list R_i). The input schedule is not
// modified; the resolved schedule is returned in the Result, and shares with
// it every file no victim's reschedule replaced (it is s when none overflows).
func Resolve(m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request, opts Options) (*Result, error) {
	return ResolveContext(context.Background(), m, s, reqs, opts)
}

// ResolveContext is Resolve with cancellation: the context is checked at
// the top of every victim iteration, so a cancelled or timed-out ctx stops
// the (potentially long) resolution loop promptly with ctx.Err() wrapped
// in the returned error.
func ResolveContext(ctx context.Context, m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request, opts Options) (*Result, error) {
	return resolve(ctx, m, s, reqs, opts, nil)
}

// resolve is ResolveContext; committed, when non-nil, is shown the working
// schedule and the table after every commit, which is how the tests check
// what the two may share. It integrates s into a ledger of its own
// (FromSchedule) and prices each file once, on from its fold; a rolling
// close asks the bar's kept ledger first and calls it only when something
// overflows (scheduler.Solve).
func resolve(ctx context.Context, m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request,
	opts Options, committed func(work *schedule.Schedule, t *pairTable)) (*Result, error) {
	if opts.Metric == 0 {
		opts.Metric = SpacePerCost
	}
	ledger := occupancy.FromSchedule(m.Book().Topology(), m.Catalog(), s)
	fileCost := priceFiles(m, s, opts.Folds)
	psi := fileCost.sum()
	// The run's overflow list, refilled in place at every iteration.
	overflows := ledger.AllOverflows()
	res := &Result{Schedule: s, InitialOverflows: len(overflows), CostBefore: psi, CostAfter: psi}
	if res.InitialOverflows == 0 {
		return res, nil // nothing is rescheduled, so no request list is read
	}
	nreq := 0
	for _, vid := range s.VideoIDs() {
		want := len(s.Files[vid].Deliveries)
		if pre := opts.Frozen[vid]; pre != nil {
			want -= len(pre.Deliveries)
		}
		if got := len(reqs[vid]); got != want {
			return nil, fmt.Errorf("sorp: video %d has %d un-frozen requests but %d reschedulable deliveries", vid, got, want)
		}
		nreq += len(reqs[vid])
	}
	if opts.Workspace == nil {
		opts.Workspace = ivs.TakeWorkspace()
		defer opts.Workspace.Release()
	}
	ledger.UseWorkspace(opts.Workspace.Occupancy())
	// Files are replaced (Put), never written in place, so the working
	// schedule shares every file it does not reschedule with s.
	work := &schedule.Schedule{Files: maps.Clone(s.Files)}
	res.Schedule = work

	table := takeTable(opts.Workspace)
	defer table.release()
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sorp: resolution aborted: %w", err)
		}
		overflows = ledger.AppendOverflows(overflows[:0])
		if len(overflows) == 0 {
			break
		}
		if iter >= iterationBound(work, nreq) {
			return nil, fmt.Errorf("sorp: no resolution after %d iterations (%d overflows remain)",
				iter, len(overflows))
		}
		res.Iterations++
		best, found, err := selectVictim(ctx, m, work, ledger, overflows, reqs, opts, &fileCost, table, res)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("sorp: %d overflows but no reschedulable victim", len(overflows))
		}
		// Commit the winning candidate's file in place; every view of this
		// iteration is dead from here on, and so is every table entry for
		// the winner's file, whose copies the others' logs took as given.
		// The winner's own entry goes with them, but its file is work's now.
		work.Put(best.fs)
		ledger.CommitFile(best.fs)
		table.dropVideo(best.record.Video, best.fs)
		fileCost.set(best.record.Video, best.newCost)
		res.Victims = append(res.Victims, best.record)
		if committed != nil {
			committed(work, table)
		}
	}
	res.CostAfter = fileCost.sum()
	return res, nil
}

// prices holds each file's current Ψ contribution, by video in ID order: the
// input's, priced once on from its fold, until a victim's commit replaces it.
// A victim replaces a file, so the working schedule holds the input's
// videos, and a candidate's overhead is a Ψ delta. Ψ before and after are
// sums of it in ScheduleCost's order, bit for bit ScheduleCost's.
type prices struct {
	ids  []media.VideoID
	cost []units.Money
}

func priceFiles(m *cost.Model, s *schedule.Schedule, folds map[media.VideoID]cost.Fold) prices {
	p := prices{ids: s.VideoIDs()}
	p.cost = make([]units.Money, len(p.ids))
	for i, vid := range p.ids {
		p.cost[i] = m.FileCostFrom(s.Files[vid], folds[vid])
	}
	return p
}

func (p *prices) at(vid media.VideoID) *units.Money {
	i, _ := slices.BinarySearch(p.ids, vid)
	return &p.cost[i]
}

func (p *prices) of(vid media.VideoID) units.Money     { return *p.at(vid) }
func (p *prices) set(vid media.VideoID, c units.Money) { *p.at(vid) = c }

func (p *prices) sum() units.Money {
	var total units.Money
	for _, c := range p.cost {
		total += c
	}
	return total
}

// pairKey names the evaluations of one file around one storage. The banned
// window is not part of it: an overflow's window shrinks or splits with
// every commit, while what an evaluation asked of it rarely changes.
type pairKey struct {
	node  topology.NodeID
	video media.VideoID
}

// pairEntry is a finished evaluation kept for reuse: its result, and in log
// the capacity answers it rested on and the box of windows its ban answers
// hold over. window is the one it ran under, round the iteration that last
// used it; brokenBy is 1 + the job of this round whose walk found that its log
// no longer replays, 0 while none has.
type pairEntry struct {
	fs       *schedule.FileSchedule
	newCost  units.Money
	ok       bool
	log      *occupancy.ProbeLog
	window   simtime.Interval
	round    int
	brokenBy int
}

// reschedJob is one (overflow, file) pair of a round.
type reschedJob struct {
	overflow int
	key      pairKey
	entry    int                 // the entry under key it reuses, -1 for none
	tmp      *occupancy.Ledger   // nil for a reused result
	log      *occupancy.ProbeLog // tmp's log; nil for a reused result
	result   reschedResult
}

// pairTable is what a run carries from one iteration to the next: its
// evaluations by key, oldest first under each — a split overflow can leave
// several — and selectVictim's per-round scaffolding, reset instead of
// reallocated. An entry leaves when its file is committed, when its log no
// longer replays, or when no overflow used it for a round; the log's
// storage is recycled each time, and so is the file's (retire). The table
// itself is kept in the run's workspace when the run ends, and the next run
// on that workspace takes it (takeTable), so the map, the per-key slices and
// the scaffolding are grown once per workspace, not once per solve.
type pairTable struct {
	ws      *ivs.Workspace
	entries map[pairKey][]pairEntry
	// spare holds the emptied slices of keys that left the table, for new
	// keys to take: keys come and go every round, and without it the
	// benchmark's batch_solve allocated 1.23 MB a solve against 1.19 MB
	// (medians of six alternating runs each, 2-CPU Xeon).
	spare [][]pairEntry

	jobs   []reschedJob
	fresh  []int                 // indices into jobs
	refsOf [][]occupancy.Ref     // per overflow, each refilled in place every round
	jobAt  []int                 // per ref in overflow/ref order: its job, -1 if not victimizable
	jobOf  map[media.VideoID]int // the current overflow's jobs
	// byKey holds the round's jobs grouped by key, each group in job order,
	// and keyAt where each group starts, then len(byKey): the replay
	// fan-out's unit, one key's entries and logs to one worker.
	byKey, keyAt []int
}

// maxSpareKeys bounds the emptied per-key slices a table keeps.
const maxSpareKeys = 4096

// takeTable returns the table the last run on the workspace kept there
// (ivs.Workspace.TakeResolverState), or a new one, drawing its views, logs
// and files from ws.
func takeTable(ws *ivs.Workspace) *pairTable {
	t, _ := ws.TakeResolverState().(*pairTable)
	if t == nil {
		t = &pairTable{entries: make(map[pairKey][]pairEntry), jobOf: make(map[media.VideoID]int)}
	}
	t.ws = ws
	return t
}

// add appends an entry under the key, in a spare slice if the key is new.
func (t *pairTable) add(k pairKey, e pairEntry) {
	es, ok := t.entries[k]
	if n := len(t.spare); !ok && n > 0 {
		es, t.spare = t.spare[n-1], t.spare[:n-1]
	}
	t.entries[k] = append(es, e)
}

// drop removes the key, whose entries have been retired, keeping its slice.
func (t *pairTable) drop(k pairKey, es []pairEntry) {
	delete(t.entries, k)
	clear(es)
	if len(t.spare) < maxSpareKeys {
		t.spare = append(t.spare, es[:0])
	}
}

// group fills byKey and keyAt from the round's jobs.
func (t *pairTable) group() {
	t.byKey, t.keyAt = t.byKey[:0], t.keyAt[:0]
	for i := range t.jobs {
		t.byKey = append(t.byKey, i)
	}
	slices.SortFunc(t.byKey, func(a, b int) int {
		ka, kb := t.jobs[a].key, t.jobs[b].key
		return cmp.Or(cmp.Compare(ka.node, kb.node), cmp.Compare(ka.video, kb.video), cmp.Compare(a, b))
	})
	for i, ji := range t.byKey {
		if i == 0 || t.jobs[ji].key != t.jobs[t.byKey[i-1]].key {
			t.keyAt = append(t.keyAt, i)
		}
	}
	t.keyAt = append(t.keyAt, len(t.byKey))
}

// replay finds, for each of one key's jobs in job order, the oldest entry
// under the key whose evaluation would repeat itself around the job's window
// on the ledger — its box covers the window and its log replays — and
// records it in the job (entry). Order of insertion, never of a map, decides
// between several. Each log is replayed at most once: one that holds is
// stamped with the round, which is how a later job of the key knows it holds,
// and one that does not is marked with the job that found it broken, which
// skips it from then on; replay does not depend on the window, so it is
// broken whichever window matched it. It writes only the key's entries, their
// logs and its own jobs, so the round's keys replay concurrently.
func (t *pairTable) replay(jobs []int, overflows []occupancy.Overflow, ledger *occupancy.Ledger, round int) {
	es := t.entries[t.jobs[jobs[0]].key]
	for _, ji := range jobs {
		j := &t.jobs[ji]
		w := overflows[j.overflow].Interval
		for i := range es {
			e := &es[i]
			if e.brokenBy != 0 || !e.log.Covers(w) {
				continue
			}
			if e.round == round || e.log.Replay(ledger) {
				e.round = round
				j.entry = i
				break
			}
			e.brokenBy = ji + 1
		}
	}
}

// dropBroken removes the key's entries a replay found broken, which the round
// has already retired, keeping the others in order.
func (t *pairTable) dropBroken(k pairKey) {
	es := t.entries[k]
	kept := es[:0]
	for _, e := range es {
		if e.brokenBy == 0 {
			kept = append(kept, e)
		}
	}
	if len(kept) < len(es) {
		clear(es[len(kept):])
		t.entries[k] = kept
	}
}

// evictUnused drops every entry no overflow used in the round.
func (t *pairTable) evictUnused(round int) {
	for k, es := range t.entries {
		kept := es[:0]
		for _, e := range es {
			if e.round == round {
				kept = append(kept, e)
			} else {
				t.retire(e)
			}
		}
		if len(kept) == 0 {
			t.drop(k, es)
		} else {
			clear(es[len(kept):])
			t.entries[k] = kept
		}
	}
}

// dropVideo drops every entry for the video, whose file committed the
// working schedule has just taken: that file's entry gives up its log only.
func (t *pairTable) dropVideo(vid media.VideoID, committed *schedule.FileSchedule) {
	for k, es := range t.entries {
		if k.video == vid {
			for _, e := range es {
				if e.fs == committed {
					e.log.Release()
				} else {
					t.retire(e)
				}
			}
			t.drop(k, es)
		}
	}
}

// retire recycles what an entry leaving the table held: its log's storage,
// and its file, for the video's next fresh evaluation to be built in.
func (t *pairTable) retire(e pairEntry) {
	e.log.Release()
	t.ws.Recycle(e.fs)
}

// release hands back what the run still holds when it ends — every entry's
// log and file (a commit has already taken its winner's entries out) and the
// views of the last round, which no later round will — and then the table,
// empty, to the workspace, for the next run on it to take (takeTable).
func (t *pairTable) release() {
	for k, es := range t.entries {
		for _, e := range es {
			t.retire(e)
		}
		t.drop(k, es)
	}
	t.releaseViews()
	clear(t.jobs)
	ws := t.ws
	t.jobs, t.ws = t.jobs[:0], nil
	ws.KeepResolverState(t)
}

// releaseViews hands every view of the round's jobs back (Ledger.Release).
func (t *pairTable) releaseViews() {
	for i := range t.jobs {
		if v := t.jobs[i].tmp; v != nil {
			v.Release()
		}
	}
}

// candidate is one involved residency scored for victimhood: the
// reschedule of its file plus the victim record (heat included) that
// reschedule earns it.
type candidate struct {
	reschedResult
	record api.Victim
}

// iterationBound returns the safety valve for the resolution loop: a
// generous bound proportional to the live schedule plus the reschedulable
// request total. It must be re-evaluated against the LIVE schedule each
// iteration: rescheduling a victim may legitimately grow its residency
// count (the rejective greedy spreads copies across storages the banned one
// can't hold), so a bound frozen from the input schedule's residency count
// can trip on convergent runs.
func iterationBound(work *schedule.Schedule, nreq int) int {
	return 10 * (work.NumResidencies() + nreq + 1)
}

// liveVictim resolves an overflow ref against the working schedule and
// reports whether the residency is victimizable.
func liveVictim(work *schedule.Schedule, opts Options, ref occupancy.Ref) (schedule.Residency, bool, error) {
	fs := work.File(ref.Video)
	if fs == nil || ref.Index >= len(fs.Residencies) {
		return schedule.Residency{}, false, fmt.Errorf("sorp: dangling overflow ref %+v", ref)
	}
	ci := fs.Residencies[ref.Index]
	if ci.FedBy == schedule.PrePlacedFeed {
		return ci, false, nil // standing copies cannot be victimized
	}
	if pre := opts.Frozen[ref.Video]; pre != nil && ref.Index < len(pre.Residencies) &&
		ci.LastService <= pre.Residencies[ref.Index].LastService {
		// Committed history: the copy sits at its frozen span and
		// rescheduling could not touch it. A frozen copy EXTENDED
		// this epoch is a victim like any other — the extension is
		// a live decision the rejective greedy can roll back (the
		// committed span itself is re-installed untouched).
		return ci, false, nil
	}
	return ci, true, nil
}

// selectVictim evaluates rescheduling every file involved in every current
// overflow and returns the candidate with the largest heat (paper Table 3,
// lines 8–18). Heat ties break toward lower overhead, then lower video ID,
// for determinism.
//
// Rescheduling operates on whole files; each involved residency c_i is
// evaluated for its heat but the expensive reschedule is deduped by
// (overflow, video) — the paper's loop is per c_i, yet for a given pair
// the reschedule result is identical and only the improvement term
// differs. The round runs in four steps. The jobs are listed, in
// overflow/ref order, without a look at the table. The table's replays then
// fan out over the worker pool by pairKey (pairTable.replay): one worker owns
// a key's entries and logs, so two jobs of one round that share a key — an
// overflow split in two — never replay one log at once; the round's
// AllOverflows has built every storage snapshot a replay reads, after which a
// replay writes only its log. A sequential pass in job order then does what
// must happen in order: a job whose entry holds takes its result from it,
// the entries its walk found broken are retired, and a job with no entry
// takes its view and log from the workspace, so what a run allocates repeats.
// The fresh evaluations fan out next, each on its own overlay view of the
// ledger (Ledger.OverlayWithout); the working schedule and ledger are
// read-only for the whole round. The winner is then picked by a sequential
// walk in overflow/ref order with the better() total order. The walk is
// independent of pool size, completion order and of which results were
// reused, so the selected victim sequence stays byte-identical at any
// GOMAXPROCS.
func selectVictim(ctx context.Context, m *cost.Model, work *schedule.Schedule, ledger *occupancy.Ledger,
	overflows []occupancy.Overflow, reqs map[media.VideoID][]workload.Request, opts Options,
	fileCost *prices, t *pairTable, res *Result) (candidate, bool, error) {

	t.releaseViews() // last round's views and logs are dead
	clear(t.jobs)
	t.jobs, t.fresh, t.jobAt = t.jobs[:0], t.fresh[:0], t.jobAt[:0]
	// Growing keeps every earlier overflow's buffer, so each is refilled in place.
	t.refsOf = slices.Grow(t.refsOf[:0], len(overflows))[:len(overflows)]
	for oi, of := range overflows {
		refs := ledger.OverflowSet(t.refsOf[oi][:0], of.Node, of.Interval)
		t.refsOf[oi] = refs
		clear(t.jobOf)
		for _, ref := range refs {
			if _, live, err := liveVictim(work, opts, ref); err != nil {
				return candidate{}, false, err
			} else if !live {
				t.jobAt = append(t.jobAt, -1)
				continue
			}
			if ji, dup := t.jobOf[ref.Video]; dup {
				t.jobAt = append(t.jobAt, ji)
				continue
			}
			t.jobOf[ref.Video] = len(t.jobs)
			t.jobAt = append(t.jobAt, len(t.jobs))
			t.jobs = append(t.jobs, reschedJob{overflow: oi, key: pairKey{of.Node, ref.Video}, entry: -1})
		}
	}

	round := res.Iterations
	t.group()
	if err := parallel.Do(ctx, len(t.keyAt)-1, func(g int) {
		t.replay(t.byKey[t.keyAt[g]:t.keyAt[g+1]], overflows, ledger, round)
	}); err != nil {
		return candidate{}, false, fmt.Errorf("sorp: victim selection aborted: %w", err)
	}
	for ji := range t.jobs {
		j := &t.jobs[ji]
		es := t.entries[j.key]
		for i := range es {
			if es[i].brokenBy == ji+1 {
				t.retire(es[i])
			}
		}
		if j.entry >= 0 {
			e := &es[j.entry]
			j.result = reschedResult{fs: e.fs, newCost: e.newCost,
				overhead: e.newCost - fileCost.of(j.key.video), ok: e.ok}
			res.Reused++
			if e.window != overflows[j.overflow].Interval {
				res.Rewindowed++
			}
		} else {
			j.tmp = ledger.OverlayWithout(j.key.video)
			j.log = j.tmp.Record()
			t.fresh = append(t.fresh, ji)
		}
	}
	for _, at := range t.keyAt[:len(t.keyAt)-1] {
		t.dropBroken(t.jobs[t.byKey[at]].key)
	}

	if err := parallel.Do(ctx, len(t.fresh), func(i int) {
		j := &t.jobs[t.fresh[i]]
		vid := j.key.video
		j.result = rescheduleFile(m, j.tmp, vid, overflows[j.overflow], reqs[vid], opts, fileCost.of(vid))
		j.log.Seal()
	}); err != nil {
		return candidate{}, false, fmt.Errorf("sorp: victim selection aborted: %w", err)
	}
	res.Evaluated += len(t.fresh)
	for _, i := range t.fresh {
		j := &t.jobs[i]
		t.add(j.key, pairEntry{fs: j.result.fs, newCost: j.result.newCost,
			ok: j.result.ok, log: j.log, window: overflows[j.overflow].Interval, round: round})
	}
	t.evictUnused(round)

	var best candidate
	found := false
	at := 0
	for oi, of := range overflows {
		for _, ref := range t.refsOf[oi] {
			ji := t.jobAt[at]
			at++
			if ji < 0 {
				continue
			}
			rs := &t.jobs[ji].result
			if !rs.ok {
				continue
			}
			cand := candidate{
				reschedResult: *rs,
				record: api.Victim{
					Video:    ref.Video,
					Node:     of.Node,
					Window:   of.Interval,
					Heat:     computeHeat(m, work.File(ref.Video).Residencies[ref.Index], of, rs.overhead, opts.Metric),
					Overhead: rs.overhead,
				},
			}
			if !found || better(cand, best) {
				best = cand
				found = true
			}
		}
	}
	return best, found, nil
}

func better(a, b candidate) bool {
	if a.record.Heat != b.record.Heat {
		return a.record.Heat > b.record.Heat
	}
	if a.overhead != b.overhead {
		return a.overhead < b.overhead
	}
	return a.record.Video < b.record.Video
}

type reschedResult struct {
	fs       *schedule.FileSchedule
	overhead units.Money
	newCost  units.Money
	ok       bool
}

// rescheduleFile re-plans one victim file on tmp, a view of the base
// ledger with the victim already removed (Ledger.OverlayWithout; taken by
// the caller sequentially, so the concurrent evaluation path can fan the
// views out afterwards). baseCost is the file's current Ψ contribution,
// maintained incrementally by ResolveContext; the overhead is the Ψ delta
// against it.
func rescheduleFile(m *cost.Model, tmp *occupancy.Ledger,
	vid media.VideoID, of occupancy.Overflow, rs []workload.Request, opts Options,
	baseCost units.Money) (out reschedResult) {
	fs, err := ivs.ScheduleFile(m, vid, rs, ivs.Options{
		Policy:    opts.Policy,
		Ledger:    tmp,
		Banned:    []occupancy.Banned{{Node: of.Node, Interval: of.Interval}},
		Seeds:     opts.Seeds[vid],
		Frozen:    opts.Frozen[vid],
		Workspace: opts.Workspace,
	})
	if err != nil {
		return out // unreschedulable candidate; skip (ok=false)
	}
	out.fs = fs
	out.newCost = m.FileCost(fs)
	out.overhead = out.newCost - baseCost
	out.ok = true
	return out
}

// computeHeat evaluates the selected metric for rescheduling the residency
// c_i with respect to the overflow (paper Eqs. 8–11). For the per-cost
// metrics, a non-positive overhead means rescheduling improves the overflow
// AND saves money; such candidates are infinitely hot — but only when they
// improve anything at all: a candidate whose improved window is empty
// (X = 0, so ΔS = 0 too) is clamped to heat 0 regardless of overhead, or a
// free-but-useless reschedule would outrank genuine victims and burn
// resolution iterations without shrinking the overflow.
func computeHeat(m *cost.Model, ci schedule.Residency, of occupancy.Overflow,
	overhead units.Money, metric HeatMetric) float64 {

	v := m.Catalog().Video(ci.Video)
	// Improved window: [max(ts_of, ts_ci), min(tf_of, tf_ci + P)] (Eq. 8).
	lo := simtime.Max(of.Interval.Start, ci.Load)
	hi := simtime.Min(of.Interval.End, ci.LastService.Add(v.Playback))
	x := hi.Sub(lo).Seconds()
	if x < 0 {
		x = 0
	}
	var improvement float64
	switch metric {
	case Period, PeriodPerCost:
		improvement = x
	default:
		improvement = ci.SpaceIntegral(simtime.NewInterval(lo, hi), v.Size.Float(), v.Playback)
	}
	if improvement <= 0 {
		return 0
	}
	switch metric {
	case Period, Space:
		return improvement
	default:
		if float64(overhead) <= 0 {
			return math.Inf(1)
		}
		return improvement / float64(overhead)
	}
}
