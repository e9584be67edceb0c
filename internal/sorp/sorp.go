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
// views the evaluations ran on are not kept — each goes back to the
// process's free list when the next round starts or the run ends
// (Ledger.Release), for a fresh evaluation of any run to reuse — so a reused
// winner is committed from its file schedule (Ledger.CommitFile).
//
// Almost every evaluation's result is thrown away, and an evaluation of the
// same file needs the same room — on a rolling horizon, a copy of its frozen
// prefix (ivs.ScheduleFile, the one place an epoch close copies history). An
// entry that leaves the table, or is still in it when the run ends, therefore
// hands its file back to ivs's process-wide free list (pairTable.retire,
// ivs.Recycle), where the next evaluation of the video, in this run or a
// later one, builds its result — except the file a commit hands to the
// working schedule, which is never recycled.
package sorp

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"

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
	// Workers bounds the concurrent evaluation of candidate reschedules
	// during victim selection: each candidate works on its own overlay
	// view of the one ledger, and the winner is picked by the same total
	// order as a sequential run, so the victim sequence is byte-identical
	// for any worker count. 0 means GOMAXPROCS, 1 forces the sequential
	// path.
	Workers int
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
}

// Victim records one rescheduling decision, for diagnostics and the
// heat-metric study of Experiment 4. Heat is +Inf for a reschedule that
// cost nothing (computeHeat), which JSON has no number for: on the wire the
// field is a number when finite and otherwise the string strconv gives it
// ("+Inf"), so a victim list round-trips whatever its heats.
type Victim struct {
	Video    media.VideoID
	Node     topology.NodeID
	Window   simtime.Interval
	Heat     float64
	Overhead units.Money
}

// victimJSON is Victim's wire form: the same field names, Heat as wireHeat.
type victimJSON struct {
	Video    media.VideoID
	Node     topology.NodeID
	Window   simtime.Interval
	Heat     wireHeat
	Overhead units.Money
}

// wireHeat is a float64 that survives JSON when it is not finite.
type wireHeat float64

func (h wireHeat) MarshalJSON() ([]byte, error) {
	f := float64(h)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 64)), nil
	}
	return json.Marshal(f)
}

func (h *wireHeat) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(h))
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(math.IsInf(f, 0) || math.IsNaN(f)) {
		return fmt.Errorf("sorp: victim heat %q is neither a number nor a non-finite float's name", s)
	}
	*h = wireHeat(f)
	return nil
}

func (v Victim) MarshalJSON() ([]byte, error) {
	return json.Marshal(victimJSON{v.Video, v.Node, v.Window, wireHeat(v.Heat), v.Overhead})
}

func (v *Victim) UnmarshalJSON(b []byte) error {
	var w victimJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*v = Victim{w.Video, w.Node, w.Window, float64(w.Heat), w.Overhead}
	return nil
}

// Result summarizes a resolution run.
type Result struct {
	Schedule         *schedule.Schedule
	Victims          []Victim
	InitialOverflows int
	CostBefore       units.Money
	CostAfter        units.Money
	Work
}

// Work counts what a resolution run did: Iterations victim-selection
// rounds, over which Evaluated (overflow, file) pairs were rescheduled
// afresh and Reused pairs were answered from an earlier round's evaluation
// — Rewindowed of those around a window other than the one the evaluation
// ran under. Read-only counters for operators and benchmarks; Reused /
// (Reused + Evaluated) is the reuse hit rate.
type Work struct {
	Iterations int `json:"iterations"`
	Evaluated  int `json:"evaluated"`
	Reused     int `json:"reused"`
	Rewindowed int `json:"rewindowed"`
}

// Add accumulates another run's counts.
func (w *Work) Add(o Work) {
	w.Iterations += o.Iterations
	w.Evaluated += o.Evaluated
	w.Reused += o.Reused
	w.Rewindowed += o.Rewindowed
}

// Delta returns the total cost increase caused by overflow resolution,
// the paper's Ψ(S_SORP) − Ψ(S).
func (r *Result) Delta() units.Money { return r.CostAfter - r.CostBefore }

// Resolve runs the SORP loop on the integrated schedule s. The request
// partition must be the one the schedule was built from (rescheduling a
// victim re-serves its whole request list R_i). The input schedule is not
// modified; the resolved schedule is returned in the Result, and shares with
// it every file no victim's reschedule replaced.
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
// what the two may share.
func resolve(ctx context.Context, m *cost.Model, s *schedule.Schedule, reqs map[media.VideoID][]workload.Request,
	opts Options, committed func(work *schedule.Schedule, t *pairTable)) (*Result, error) {
	if opts.Metric == 0 {
		opts.Metric = SpacePerCost
	}
	topo := m.Book().Topology()
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
	// Files are replaced (Put), never written in place, so the working
	// schedule shares every file it does not reschedule with s.
	work := &schedule.Schedule{Files: maps.Clone(s.Files)}
	ledger := occupancy.FromSchedule(topo, m.Catalog(), work)

	res := &Result{
		Schedule:         work,
		InitialOverflows: len(ledger.AllOverflows()),
		CostBefore:       m.ScheduleCost(s),
	}

	// fileCost holds each touched file's current Ψ contribution, so a
	// candidate's overhead is a Ψ delta instead of a full re-costing.
	fileCost := make(map[media.VideoID]units.Money)
	table := pairTable{
		entries: make(map[pairKey][]pairEntry),
		jobOf:   make(map[media.VideoID]int),
	}
	defer table.release()
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sorp: resolution aborted: %w", err)
		}
		overflows := ledger.AllOverflows()
		if len(overflows) == 0 {
			break
		}
		if iter >= iterationBound(work, nreq) {
			return nil, fmt.Errorf("sorp: no resolution after %d iterations (%d overflows remain)",
				iter, len(overflows))
		}
		res.Iterations++
		best, found, err := selectVictim(ctx, m, work, ledger, overflows, reqs, opts, fileCost, &table, res)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("sorp: %d overflows but no reschedulable victim", len(overflows))
		}
		// Commit the winning candidate in place; every losing view of this
		// iteration is dead from here on, and so is every table entry for
		// the winner's file, whose copies the others' logs took as given.
		// The winner's own entry goes with them, but its file is work's now.
		work.Put(best.fs)
		if best.ledger != nil {
			ledger = best.ledger.Commit()
		} else {
			ledger.CommitFile(best.fs)
		}
		table.dropVideo(best.record.Video, best.fs)
		fileCost[best.record.Video] = best.newCost
		res.Victims = append(res.Victims, best.record)
		if committed != nil {
			committed(work, &table)
		}
	}
	res.CostAfter = m.ScheduleCost(work)
	return res, nil
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
// used it.
type pairEntry struct {
	fs      *schedule.FileSchedule
	newCost units.Money
	ok      bool
	log     *occupancy.ProbeLog
	window  simtime.Interval
	round   int
}

// reschedJob is one (overflow, file) pair of a round.
type reschedJob struct {
	overflow int
	video    media.VideoID
	tmp      *occupancy.Ledger   // nil for a reused result
	log      *occupancy.ProbeLog // tmp's log; nil for a reused result
	result   reschedResult
}

// pairTable is what a run carries from one iteration to the next: its
// evaluations by key, oldest first under each — a split overflow can leave
// several — and selectVictim's per-round scaffolding, reset instead of
// reallocated. An entry leaves when its file is committed, when its log no
// longer replays, or when no overflow used it for a round; the log's
// storage is recycled each time, and so is the file's (retire).
type pairTable struct {
	entries map[pairKey][]pairEntry

	jobs   []reschedJob
	fresh  []int                 // indices into jobs
	refsOf [][]occupancy.Ref     // per overflow, each refilled in place every round
	jobAt  []int                 // per ref in overflow/ref order: its job, -1 if not victimizable
	jobOf  map[media.VideoID]int // the current overflow's jobs
}

// lookup returns the oldest entry under k whose evaluation would repeat
// itself around window w on the ledger — its box covers w and its log
// replays — stamped with the round, or nil. Order of insertion, never of a
// map, decides between several, so a run's allocations repeat. Replay does
// not depend on the window: an entry that fails it is dropped whichever
// window matched it.
func (t *pairTable) lookup(k pairKey, w simtime.Interval, ledger *occupancy.Ledger, round int) *pairEntry {
	es := t.entries[k]
	for i := 0; i < len(es); {
		e := &es[i]
		if !e.log.Covers(w) {
			i++
			continue
		}
		if e.log.Replay(ledger) {
			e.round = round
			return e
		}
		t.retire(*e)
		es = slices.Delete(es, i, i+1)
		t.entries[k] = es
	}
	return nil
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
		clear(es[len(kept):])
		if len(kept) == 0 {
			delete(t.entries, k)
		} else {
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
			delete(t.entries, k)
		}
	}
}

// retire recycles what an entry leaving the table held: its log's storage,
// and its file, for the video's next fresh evaluation to be built in.
func (t *pairTable) retire(e pairEntry) {
	e.log.Release()
	ivs.Recycle(e.fs)
}

// release hands back what the run still holds when it ends: every entry's
// log and file — a commit has already taken its winner's entries out — and
// the views of the last round, which no later round will.
func (t *pairTable) release() {
	for _, es := range t.entries {
		for _, e := range es {
			t.retire(e)
		}
	}
	t.entries = nil
	t.releaseViews()
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
	record Victim
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
// differs. A pair with a table entry that still holds (pairTable.lookup)
// takes its result from the entry; the others are independent —
// each works on its own overlay view of the ledger — so they are evaluated
// across the worker pool. Replays and views are taken sequentially up front
// (both build the base's snapshots in place) and the winner is then picked
// by a sequential walk in overflow/ref order with the better() total order.
// The walk is independent of worker count, completion order and of which
// results were reused, so the selected victim sequence stays
// byte-identical for any Workers setting.
func selectVictim(ctx context.Context, m *cost.Model, work *schedule.Schedule, ledger *occupancy.Ledger,
	overflows []occupancy.Overflow, reqs map[media.VideoID][]workload.Request, opts Options,
	fileCost map[media.VideoID]units.Money, t *pairTable, res *Result) (candidate, bool, error) {

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
			if _, ok := fileCost[ref.Video]; !ok {
				fileCost[ref.Video] = m.FileCost(work.File(ref.Video))
			}
			t.jobOf[ref.Video] = len(t.jobs)
			t.jobAt = append(t.jobAt, len(t.jobs))
			job := reschedJob{overflow: oi, video: ref.Video}
			if e := t.lookup(pairKey{of.Node, ref.Video}, of.Interval, ledger, res.Iterations); e != nil {
				job.result = reschedResult{fs: e.fs, newCost: e.newCost,
					overhead: e.newCost - fileCost[ref.Video], ok: e.ok}
				res.Reused++
				if e.window != of.Interval {
					res.Rewindowed++
				}
			} else {
				job.tmp = ledger.OverlayWithout(ref.Video)
				job.log = job.tmp.Record()
				t.fresh = append(t.fresh, len(t.jobs))
			}
			t.jobs = append(t.jobs, job)
		}
	}

	if err := parallel.Do(ctx, opts.Workers, len(t.fresh), func(i int) {
		j := &t.jobs[t.fresh[i]]
		j.result = rescheduleFile(m, j.tmp, j.video, overflows[j.overflow], reqs[j.video], opts,
			fileCost[j.video])
	}); err != nil {
		return candidate{}, false, fmt.Errorf("sorp: victim selection aborted: %w", err)
	}
	res.Evaluated += len(t.fresh)
	for _, i := range t.fresh {
		j := &t.jobs[i]
		of := overflows[j.overflow]
		key := pairKey{of.Node, j.video}
		t.entries[key] = append(t.entries[key], pairEntry{fs: j.result.fs, newCost: j.result.newCost,
			ok: j.result.ok, log: j.log, window: of.Interval, round: res.Iterations})
	}
	t.evictUnused(res.Iterations)

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
				record: Victim{
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
	fs *schedule.FileSchedule
	// ledger is the view the reschedule ran on; nil for a result reused
	// from an earlier iteration.
	ledger   *occupancy.Ledger
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
		Policy: opts.Policy,
		Ledger: tmp,
		Banned: []occupancy.Banned{{Node: of.Node, Interval: of.Interval}},
		Seeds:  opts.Seeds[vid],
		Frozen: opts.Frozen[vid],
	})
	if err != nil {
		return out // unreschedulable candidate; skip (ok=false)
	}
	out.fs = fs
	out.ledger = tmp
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
