package workload

// Pattern generation: servegen-style structured workloads layered on top
// of Config. Where Generate draws one flat batch (every user, one Zipf
// draw, one arrival process), a Pattern composes
//
//   - a temporal rate profile — a diurnal cycle, premiere flash crowds
//     and per-window rate multipliers — sampled on a fixed slot grid,
//   - popularity structure that moves — Zipf rank drift (adjacent-rank
//     swaps) and catalog churn (titles re-entering the ranking in the
//     premiere zone) applied on interval boundaries,
//   - regional neighborhood cohorts — contiguous metro regions with
//     their own taste permutations and, optionally, time-zone-staggered
//     diurnal phases — on top of the per-neighborhood Locality mixing
//     Config already provides.
//
// The emitted trace is chronological by construction and is produced
// one request at a time through Stream, so a multi-million-request
// trace never materializes in memory: peak state is the slot weight
// grid plus one slot's worth of events.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// Diurnal shapes the daily demand cycle as a raised cosine: the rate
// factor is 1+Strength at the peak instant and 1-Strength at the
// trough, with mean 1 over a full period.
type Diurnal struct {
	// Strength in [0, 1]: 0 (default) is a flat profile, 1 swings the
	// rate between 2x and 0.
	Strength float64
	// Period of the cycle (default 24h).
	Period simtime.Duration
	// Peak is the offset of the daily maximum within the period
	// (default 20h — the 8pm prime-time surge).
	Peak simtime.Duration
}

// Flash is one premiere flash crowd: a triangular rate bump of height
// Boost centered on At, optionally funneling the extra demand onto the
// premiered title.
type Flash struct {
	// At is the premiere instant (the bump's center).
	At simtime.Time
	// Duration is the half-width of the bump (default 1h): the boost
	// ramps linearly from 0 at At-Duration to Boost at At and back.
	Duration simtime.Duration
	// Boost is the added rate multiple at the peak (2 triples the
	// baseline rate at the premiere instant). Must be >= 0.
	Boost float64
	// Video is the premiered title. A crowd-attributed request targets
	// it with probability Share; with Share 0 (the default) the crowd
	// draws from the regular popularity distribution and Video is
	// ignored, so the zero value is safe.
	Video media.VideoID
	Share float64
}

// Window scales the rate by Factor over [From, To) — maintenance
// windows (Factor < 1), promotional pushes (Factor > 1).
type Window struct {
	From, To simtime.Time
	Factor   float64
}

// Drift perturbs the popularity ranking every Interval by Swaps
// adjacent-rank transpositions, so ranks wander instead of being pinned
// for the whole trace.
type Drift struct {
	Interval simtime.Duration // 0 disables drift
	Swaps    int              // default max(1, titles/20)
}

// Churn re-rolls part of the catalog every Interval: Fraction of the
// titles are plucked from their ranks and re-inserted in the premiere
// zone (the top tenth of the ranking), modelling new releases entering
// hot while incumbents slide toward the tail.
type Churn struct {
	Interval simtime.Duration // 0 disables churn
	Fraction float64          // fraction of the catalog moved per interval, in [0, 1]
}

// Pattern parameterizes structured trace generation. The zero value of
// every field beyond Requests reproduces a flat uniform-rate trace with
// Base's popularity model.
type Pattern struct {
	// Base supplies the popularity skew (Alpha), neighborhood Locality
	// mixing and the RNG Seed. Its Window, Arrival and RequestsPerUser
	// fields are ignored — the Pattern owns time.
	Base Config
	// Requests is the total number of reservations to emit (required).
	Requests int
	// Span is the trace duration (default 24h).
	Span simtime.Duration
	// Slot is the rate-profile resolution (default 5m). Weights are
	// evaluated at slot midpoints; request start times spread uniformly
	// within their slot.
	Slot simtime.Duration

	Diurnal Diurnal
	Flash   []Flash
	Windows []Window
	Drift   Drift
	Churn   Churn

	// Regions > 0 partitions the neighborhoods into that many contiguous
	// metro regions (the same partition the gateway's locality placement
	// uses) and apportions demand region by region.
	Regions int
	// CohortShare in [0, 1] is the probability that a request's
	// popularity rank is remapped through its region's cohort
	// permutation: regions agree demand is concentrated but disagree on
	// which titles are hot. Requires Regions > 0.
	CohortShare float64
	// RegionStagger shifts region r's diurnal phase by r*RegionStagger,
	// modelling time zones across the metro ring.
	RegionStagger simtime.Duration
}

func (p Pattern) withDefaults(titles int) Pattern {
	if p.Span == 0 {
		p.Span = simtime.Day
	}
	if p.Slot == 0 {
		p.Slot = 5 * simtime.Minute
	}
	if p.Slot > p.Span {
		p.Slot = p.Span
	}
	if p.Diurnal.Period == 0 {
		p.Diurnal.Period = simtime.Day
	}
	if p.Diurnal.Peak == 0 {
		p.Diurnal.Peak = 20 * simtime.Hour
	}
	for i := range p.Flash {
		if p.Flash[i].Duration == 0 {
			p.Flash[i].Duration = simtime.Hour
		}
	}
	if p.Drift.Interval > 0 && p.Drift.Swaps == 0 {
		p.Drift.Swaps = titles / 20
		if p.Drift.Swaps < 1 {
			p.Drift.Swaps = 1
		}
	}
	return p
}

func (p Pattern) validate(cat *media.Catalog) error {
	if cat.Len() == 0 {
		return fmt.Errorf("workload: empty catalog")
	}
	if p.Requests <= 0 {
		return fmt.Errorf("workload: pattern needs Requests > 0, got %d", p.Requests)
	}
	if p.Span <= 0 || p.Slot <= 0 {
		return fmt.Errorf("workload: pattern span %v and slot %v must be positive", p.Span, p.Slot)
	}
	if p.Diurnal.Strength < 0 || p.Diurnal.Strength > 1 {
		return fmt.Errorf("workload: diurnal strength must be in [0,1], got %g", p.Diurnal.Strength)
	}
	if p.Diurnal.Period <= 0 {
		return fmt.Errorf("workload: diurnal period must be positive, got %v", p.Diurnal.Period)
	}
	for i, f := range p.Flash {
		if f.Boost < 0 {
			return fmt.Errorf("workload: flash %d has negative boost %g", i, f.Boost)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("workload: flash %d has non-positive duration %v", i, f.Duration)
		}
		if f.Share < 0 || f.Share > 1 {
			return fmt.Errorf("workload: flash %d share must be in [0,1], got %g", i, f.Share)
		}
		if f.Share > 0 && (int(f.Video) < 0 || int(f.Video) >= cat.Len()) {
			return fmt.Errorf("workload: flash %d premieres unknown video %d", i, f.Video)
		}
	}
	for i, w := range p.Windows {
		if w.Factor < 0 {
			return fmt.Errorf("workload: window %d has negative factor %g", i, w.Factor)
		}
		if w.To <= w.From {
			return fmt.Errorf("workload: window %d is empty: [%v, %v)", i, w.From, w.To)
		}
	}
	if p.Churn.Fraction < 0 || p.Churn.Fraction > 1 {
		return fmt.Errorf("workload: churn fraction must be in [0,1], got %g", p.Churn.Fraction)
	}
	if p.CohortShare < 0 || p.CohortShare > 1 {
		return fmt.Errorf("workload: cohort share must be in [0,1], got %g", p.CohortShare)
	}
	if p.CohortShare > 0 && p.Regions <= 0 {
		return fmt.Errorf("workload: cohort share %g needs Regions > 0", p.CohortShare)
	}
	if p.Base.Locality < 0 || p.Base.Locality > 1 {
		return fmt.Errorf("workload: locality must be in [0,1], got %g", p.Base.Locality)
	}
	return nil
}

// diurnalFactor evaluates the raised-cosine cycle at t with the given
// phase shift.
func (p Pattern) diurnalFactor(t simtime.Time, shift simtime.Duration) float64 {
	if p.Diurnal.Strength == 0 {
		return 1
	}
	theta := 2 * math.Pi * float64(int64(t)-int64(p.Diurnal.Peak)-int64(shift)) / float64(p.Diurnal.Period)
	return 1 + p.Diurnal.Strength*math.Cos(theta)
}

// windowFactor is the product of every window multiplier covering t.
func (p Pattern) windowFactor(t simtime.Time) float64 {
	f := 1.0
	for _, w := range p.Windows {
		if t >= w.From && t < w.To {
			f *= w.Factor
		}
	}
	return f
}

// flashBoost returns each flash crowd's added rate multiple at t
// (triangular bump), aligned with p.Flash.
func (p Pattern) flashBoost(t simtime.Time) []float64 {
	if len(p.Flash) == 0 {
		return nil
	}
	out := make([]float64, len(p.Flash))
	for i, f := range p.Flash {
		d := int64(t) - int64(f.At)
		if d < 0 {
			d = -d
		}
		if d < int64(f.Duration) {
			out[i] = f.Boost * (1 - float64(d)/float64(f.Duration))
		}
	}
	return out
}

// patternState is the mutable popularity state the slot loop threads:
// the rank-to-title assignment under drift and churn, and the next
// pending mutation instants.
type patternState struct {
	rankToVideo []media.VideoID
	nextDrift   simtime.Time
	nextChurn   simtime.Time
}

// advanceTo applies every drift/churn interval boundary at or before t,
// in chronological order (drift first on ties), keeping the mutation
// sequence a pure function of the seed.
func (p Pattern) advanceTo(st *patternState, t simtime.Time, rng *rand.Rand) {
	n := len(st.rankToVideo)
	for {
		driftDue := p.Drift.Interval > 0 && st.nextDrift <= t
		churnDue := p.Churn.Interval > 0 && st.nextChurn <= t
		switch {
		case driftDue && (!churnDue || st.nextDrift <= st.nextChurn):
			for i := 0; i < p.Drift.Swaps && n > 1; i++ {
				j := rng.Intn(n - 1)
				st.rankToVideo[j], st.rankToVideo[j+1] = st.rankToVideo[j+1], st.rankToVideo[j]
			}
			st.nextDrift = st.nextDrift.Add(p.Drift.Interval)
		case churnDue:
			moves := int(p.Churn.Fraction * float64(n))
			hot := n / 10
			if hot < 1 {
				hot = 1
			}
			for i := 0; i < moves; i++ {
				from := rng.Intn(n)
				to := rng.Intn(hot)
				v := st.rankToVideo[from]
				st.rankToVideo = append(st.rankToVideo[:from], st.rankToVideo[from+1:]...)
				st.rankToVideo = append(st.rankToVideo[:to], append([]media.VideoID{v}, st.rankToVideo[to:]...)...)
			}
			st.nextChurn = st.nextChurn.Add(p.Churn.Interval)
		default:
			return
		}
	}
}

// Stream generates the pattern's trace, invoking emit once per request
// in chronological order (start time, then user, then video). It never
// holds more than one slot's worth of requests, so emit may stream
// millions of reservations to disk or over HTTP in bounded memory.
// Generation is deterministic per (topology, catalog, pattern).
func (p Pattern) Stream(topo *topology.Topology, cat *media.Catalog, emit func(Request) error) error {
	p = p.withDefaults(cat.Len())
	if err := p.validate(cat); err != nil {
		return err
	}
	bcfg := p.Base.withDefaults()
	zipf, err := NewZipf(cat.Len(), bcfg.Alpha)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(bcfg.Seed))
	locPerms := localPermutations(topo, cat.Len(), bcfg, rng)

	// Region partition and per-region user pools. Without Regions the
	// whole population is one pool.
	nRegions := p.Regions
	if nRegions <= 0 {
		nRegions = 1
	}
	regionUsers := make([][]topology.UserID, nRegions)
	if p.Regions > 0 {
		regions := topology.UserRegions(topo, nRegions)
		for i, r := range regions {
			regionUsers[r] = append(regionUsers[r], topology.UserID(i))
		}
	} else {
		all := make([]topology.UserID, topo.NumUsers())
		for i := range all {
			all[i] = topology.UserID(i)
		}
		regionUsers[0] = all
	}
	var cohortPerms [][]int
	if p.CohortShare > 0 {
		cohortPerms = make([][]int, nRegions)
		for r := range cohortPerms {
			cohortPerms[r] = rng.Perm(cat.Len())
		}
	}

	// First pass: the (slot, region) weight grid. Rates are independent
	// of the popularity state, so this needs no RNG and stays O(slots).
	nSlots := int((p.Span + p.Slot - 1) / p.Slot)
	type cell struct {
		base    float64   // diurnal x windows share of the cell's weight
		flashes []float64 // per-flash added shares, aligned with p.Flash
		total   float64
	}
	grid := make([]cell, nSlots*nRegions)
	totalWeight := 0.0
	slotBounds := func(s int) (lo, hi simtime.Time) {
		lo = simtime.Time(int64(s) * int64(p.Slot))
		hi = lo.Add(p.Slot)
		if hi > simtime.Time(p.Span) {
			hi = simtime.Time(p.Span)
		}
		return lo, hi
	}
	for s := 0; s < nSlots; s++ {
		lo, hi := slotBounds(s)
		mid := simtime.Time((int64(lo) + int64(hi)) / 2)
		win := p.windowFactor(mid)
		fl := p.flashBoost(mid)
		for r := 0; r < nRegions; r++ {
			if len(regionUsers[r]) == 0 {
				continue // an empty region can serve no demand
			}
			c := cell{base: p.diurnalFactor(mid, simtime.Duration(r)*p.RegionStagger)}
			c.total = c.base
			for _, b := range fl {
				c.flashes = append(c.flashes, b)
				c.total += b
			}
			c.total *= win
			c.base *= win
			for i := range c.flashes {
				c.flashes[i] *= win
			}
			if c.total < 0 {
				c.total = 0
			}
			grid[s*nRegions+r] = c
			totalWeight += c.total
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("workload: pattern rate profile is zero everywhere (no users, or windows cancel all demand)")
	}

	// Second pass: apportion Requests over the grid by cumulative
	// rounding (exact total, no per-cell randomness), then draw each
	// slot's events and emit them in order.
	st := &patternState{rankToVideo: make([]media.VideoID, cat.Len())}
	for i := range st.rankToVideo {
		st.rankToVideo[i] = media.VideoID(i)
	}
	if p.Drift.Interval > 0 {
		st.nextDrift = simtime.Time(int64(p.Drift.Interval))
	}
	if p.Churn.Interval > 0 {
		st.nextChurn = simtime.Time(int64(p.Churn.Interval))
	}
	drawVideo := func(c cell, region int, user topology.UserID) media.VideoID {
		// Attribute the request to the baseline or to one flash crowd,
		// proportionally to their share of the cell's rate.
		if len(c.flashes) > 0 {
			u := rng.Float64() * c.total
			if u >= c.base {
				u -= c.base
				for i, b := range c.flashes {
					if u < b {
						f := p.Flash[i]
						if f.Share > 0 && rng.Float64() < f.Share {
							return f.Video
						}
						break
					}
					u -= b
				}
			}
		}
		rank := zipf.Draw(rng)
		if cohortPerms != nil && rng.Float64() < p.CohortShare {
			rank = cohortPerms[region][rank]
		}
		if bcfg.Locality > 0 && rng.Float64() < bcfg.Locality {
			rank = remapRank(locPerms, topo.User(user).Local, rank)
		}
		return st.rankToVideo[rank]
	}

	lastCell := -1 // last cell with demand absorbs float rounding
	for i, c := range grid {
		if c.total > 0 {
			lastCell = i
		}
	}
	acc, assigned := 0.0, 0
	var slotEvents []Request
	for s := 0; s < nSlots; s++ {
		lo, hi := slotBounds(s)
		p.advanceTo(st, lo, rng)
		slotEvents = slotEvents[:0]
		for r := 0; r < nRegions; r++ {
			c := grid[s*nRegions+r]
			acc += c.total
			target := int(math.Round(float64(p.Requests) * acc / totalWeight))
			if s*nRegions+r >= lastCell {
				target = p.Requests
			}
			count := target - assigned
			assigned = target
			span := int64(hi - lo)
			if span <= 0 {
				span = 1
			}
			for k := 0; k < count; k++ {
				start := lo.Add(simtime.Duration(rng.Int63n(span)))
				pool := regionUsers[r]
				user := pool[rng.Intn(len(pool))]
				slotEvents = append(slotEvents, Request{
					User:  user,
					Video: drawVideo(c, r, user),
					Start: start,
				})
			}
		}
		sort.Slice(slotEvents, func(i, j int) bool {
			if slotEvents[i].Start != slotEvents[j].Start {
				return slotEvents[i].Start < slotEvents[j].Start
			}
			if slotEvents[i].User != slotEvents[j].User {
				return slotEvents[i].User < slotEvents[j].User
			}
			return slotEvents[i].Video < slotEvents[j].Video
		})
		for _, r := range slotEvents {
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// GeneratePattern collects a Pattern's stream into an in-memory Set —
// the convenience path for tests and small traces. Large traces should
// use Stream (or NewPatternReader) with a TraceWriter instead.
func GeneratePattern(topo *topology.Topology, cat *media.Catalog, p Pattern) (Set, error) {
	set := make(Set, 0, p.Requests)
	if err := p.Stream(topo, cat, func(r Request) error {
		set = append(set, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return set, nil
}
