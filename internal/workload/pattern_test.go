package workload

import (
	"testing"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

func patternFixture(t *testing.T, usersPerStorage int) (*topology.Topology, *media.Catalog) {
	t.Helper()
	topo := topology.Metro(topology.GenConfig{Storages: 4, UsersPerStorage: usersPerStorage}, 1)
	cat, err := media.Generate(media.GenConfig{Titles: 40})
	if err != nil {
		t.Fatal(err)
	}
	return topo, cat
}

func TestPatternExactCountAndOrder(t *testing.T) {
	topo, cat := patternFixture(t, 6)
	p := Pattern{
		Base:     Config{Seed: 7},
		Requests: 1234,
		Span:     simtime.Day,
		Diurnal:  Diurnal{Strength: 0.8},
		Flash:    []Flash{{At: simtime.Time(20 * simtime.Hour), Boost: 3, Video: 5, Share: 0.9}},
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != p.Requests {
		t.Fatalf("emitted %d requests, want exactly %d", len(set), p.Requests)
	}
	for i := 1; i < len(set); i++ {
		if set[i].Start < set[i-1].Start {
			t.Fatalf("trace not chronological at %d: %v after %v", i, set[i].Start, set[i-1].Start)
		}
	}
	for i, r := range set {
		if r.Start < 0 || r.Start >= simtime.Time(p.Span) {
			t.Fatalf("request %d starts at %v, outside [0, %v)", i, r.Start, p.Span)
		}
		if int(r.Video) < 0 || int(r.Video) >= cat.Len() {
			t.Fatalf("request %d references video %d outside the catalog", i, r.Video)
		}
		if int(r.User) < 0 || int(r.User) >= topo.NumUsers() {
			t.Fatalf("request %d references user %d", i, r.User)
		}
	}
}

func TestPatternDeterministicPerSeed(t *testing.T) {
	topo, cat := patternFixture(t, 5)
	p := Pattern{
		Base:     Config{Seed: 11, Locality: 0.5, Alpha: 0.271},
		Requests: 500,
		Diurnal:  Diurnal{Strength: 0.5},
		Drift:    Drift{Interval: simtime.Hour},
		Churn:    Churn{Interval: 6 * simtime.Hour, Fraction: 0.1},
		Regions:  2, CohortShare: 0.4, RegionStagger: 3 * simtime.Hour,
	}
	a, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree on size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	p2 := p
	p2.Base.Seed = 12
	c, err := GeneratePattern(topo, cat, p2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// The diurnal cycle must visibly shape the trace: with a strong cycle
// peaking at 20h, the peak quarter-day carries more demand than the
// trough quarter-day.
func TestPatternDiurnalShape(t *testing.T) {
	topo, cat := patternFixture(t, 8)
	p := Pattern{
		Base:     Config{Seed: 3},
		Requests: 20000,
		Diurnal:  Diurnal{Strength: 0.9, Peak: 20 * simtime.Hour},
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	peak, trough := 0, 0
	for _, r := range set {
		h := int64(r.Start) / int64(simtime.Hour)
		switch {
		case h >= 17 && h < 23: // around the 20h peak
			peak++
		case h >= 5 && h < 11: // around the 8h trough
			trough++
		}
	}
	if peak <= 2*trough {
		t.Fatalf("diurnal shape too flat: peak window %d vs trough window %d", peak, trough)
	}
}

// A premiere flash crowd concentrates demand on the premiered title
// around the premiere instant.
func TestPatternFlashAttribution(t *testing.T) {
	topo, cat := patternFixture(t, 8)
	premiere := media.VideoID(17)
	p := Pattern{
		Base:     Config{Seed: 5},
		Requests: 10000,
		Flash:    []Flash{{At: simtime.Time(12 * simtime.Hour), Duration: simtime.Hour, Boost: 5, Video: premiere, Share: 0.8}},
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	inWindow, onPremiere, outWindow := 0, 0, 0
	for _, r := range set {
		if r.Start >= simtime.Time(11*simtime.Hour) && r.Start < simtime.Time(13*simtime.Hour) {
			inWindow++
			if r.Video == premiere {
				onPremiere++
			}
		} else {
			outWindow++
		}
	}
	// The 2h window is 1/12 of the day but carries the 5x bump: it must
	// hold well over its flat share of the trace.
	if inWindow*6 < outWindow {
		t.Fatalf("flash window underloaded: %d in vs %d out", inWindow, outWindow)
	}
	// With Share 0.8 most crowd requests hit the premiered title.
	if onPremiere*3 < inWindow {
		t.Fatalf("premiere attribution too weak: %d of %d window requests", onPremiere, inWindow)
	}
}

// A zero-factor window silences its interval completely.
func TestPatternMaintenanceWindow(t *testing.T) {
	topo, cat := patternFixture(t, 4)
	p := Pattern{
		Base:     Config{Seed: 9},
		Requests: 5000,
		Windows:  []Window{{From: simtime.Time(2 * simtime.Hour), To: simtime.Time(4 * simtime.Hour), Factor: 0}},
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range set {
		if r.Start >= simtime.Time(2*simtime.Hour) && r.Start < simtime.Time(4*simtime.Hour) {
			t.Fatalf("request %d lands at %v inside a zero-rate maintenance window", i, r.Start)
		}
	}
	if len(set) != p.Requests {
		t.Fatalf("window redistribution lost requests: %d of %d", len(set), p.Requests)
	}
}

// Drift and churn must actually move the ranking: with heavy churn the
// popularity mass shifts between the first and second half of the trace.
func TestPatternDriftChurnMoveRanks(t *testing.T) {
	topo, cat := patternFixture(t, 6)
	p := Pattern{
		Base:     Config{Seed: 21, Alpha: 0.1}, // strong skew: top ranks dominate
		Requests: 20000,
		Drift:    Drift{Interval: simtime.Hour, Swaps: 10},
		Churn:    Churn{Interval: 2 * simtime.Hour, Fraction: 0.3},
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	half := simtime.Time(12 * simtime.Hour)
	first := make(map[media.VideoID]int)
	second := make(map[media.VideoID]int)
	for _, r := range set {
		if r.Start < half {
			first[r.Video]++
		} else {
			second[r.Video]++
		}
	}
	top := func(m map[media.VideoID]int) media.VideoID {
		var best media.VideoID
		bestN := -1
		for v, n := range m {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		return best
	}
	// With 30% of a 40-title catalog re-rolled every 2h for 24h, the
	// initially hottest title cannot still dominate the second half.
	if top(first) == media.VideoID(0) && top(second) == media.VideoID(0) {
		t.Fatal("ranking never moved: video 0 tops both halves under heavy churn")
	}
}

// Regional cohorts give regions different tastes: with CohortShare 1 the
// per-region top title should differ between at least two regions.
func TestPatternCohortsDiverge(t *testing.T) {
	topo, cat := patternFixture(t, 8)
	p := Pattern{
		Base:        Config{Seed: 2, Alpha: 0.1},
		Requests:    20000,
		Regions:     4,
		CohortShare: 1,
	}
	set, err := GeneratePattern(topo, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	regions := topology.UserRegions(topo, 4)
	counts := make([]map[media.VideoID]int, 4)
	for i := range counts {
		counts[i] = make(map[media.VideoID]int)
	}
	for _, r := range set {
		counts[regions[r.User]][r.Video]++
	}
	tops := make(map[media.VideoID]bool)
	for _, m := range counts {
		var best media.VideoID
		bestN := -1
		for v, n := range m {
			if n > bestN {
				best, bestN = v, n
			}
		}
		tops[best] = true
	}
	if len(tops) < 2 {
		t.Fatalf("all 4 cohort regions share one top title %v — cohort permutations had no effect", tops)
	}
}

func TestPatternValidation(t *testing.T) {
	topo, cat := patternFixture(t, 4)
	cases := []struct {
		name string
		p    Pattern
	}{
		{"no requests", Pattern{}},
		{"bad diurnal", Pattern{Requests: 1, Diurnal: Diurnal{Strength: 1.5}}},
		{"negative boost", Pattern{Requests: 1, Flash: []Flash{{Boost: -1}}}},
		{"flash share without video", Pattern{Requests: 1, Flash: []Flash{{Boost: 1, Share: 0.5, Video: 999}}}},
		{"empty window", Pattern{Requests: 1, Windows: []Window{{From: 5, To: 5, Factor: 1}}}},
		{"negative window factor", Pattern{Requests: 1, Windows: []Window{{From: 0, To: 5, Factor: -2}}}},
		{"churn fraction", Pattern{Requests: 1, Churn: Churn{Interval: 1, Fraction: 2}}},
		{"cohort without regions", Pattern{Requests: 1, CohortShare: 0.5}},
		{"bad locality", Pattern{Requests: 1, Base: Config{Locality: 2}}},
		{"all demand cancelled", Pattern{Requests: 1, Windows: []Window{{From: 0, To: simtime.Time(simtime.Day), Factor: 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := GeneratePattern(topo, cat, tc.p); err == nil {
				t.Fatalf("invalid pattern accepted: %+v", tc.p)
			}
		})
	}
}

// The zero-value Pattern beyond Requests is a flat trace: usable without
// configuring any of the layers.
func TestPatternZeroValueFlat(t *testing.T) {
	topo, cat := patternFixture(t, 4)
	set, err := GeneratePattern(topo, cat, Pattern{Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 100 {
		t.Fatalf("flat pattern emitted %d, want 100", len(set))
	}
}
