package experiment

import (
	"reflect"
	"testing"

	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/testutil"
)

// small returns a scaled-down base configuration that keeps the test suite
// fast while preserving the overflow-rich regime.
func small() testutil.Params {
	return testutil.Params{Storages: 9, UsersPerStorage: 6, Titles: 60, Seed: 5}
}

func TestParamsDefaults(t *testing.T) {
	p := testutil.Params{}.WithDefaults()
	if p.Storages != 19 || p.UsersPerStorage != 10 || p.Titles != 500 {
		t.Errorf("scale defaults: %+v", p)
	}
	if p.CapacityGB != 5 || p.SRateGBHour != 5 || p.NRateGB != 500 {
		t.Errorf("rate defaults: %+v", p)
	}
	if p.Alpha != 0.271 || p.WindowHours != 12 || p.RequestsPerUser != 1 {
		t.Errorf("workload defaults: %+v", p)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestRateConversions(t *testing.T) {
	p := testutil.Params{SRateGBHour: 3600e9, NRateGB: 1e9}.WithDefaults()
	if got := float64(p.SRate()); got != 1 {
		t.Errorf("SRate = %g, want 1 $/byte·s", got)
	}
	if got := float64(p.NRate()); got != 1 {
		t.Errorf("NRate = %g, want 1 $/byte", got)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := testutil.Build(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := testutil.Build(small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Topo.NumEdges() != b.Topo.NumEdges() || len(a.Requests) != len(b.Requests) {
		t.Fatal("Build not deterministic")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("request stream not deterministic")
		}
	}
}

func TestRunOne(t *testing.T) {
	r, err := RunOne(small())
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 54 {
		t.Errorf("requests = %d, want 54", r.Requests)
	}
	if r.FinalCost <= 0 || r.DirectCost <= 0 {
		t.Error("costs must be positive")
	}
	if float64(r.FinalCost) > float64(r.DirectCost)+1e-6 {
		t.Errorf("final %v exceeds direct %v", r.FinalCost, r.DirectCost)
	}
	if float64(r.Phase1Cost) > float64(r.FinalCost)+1e-6 {
		t.Errorf("phase1 %v exceeds final %v (resolution can only add cost on this rig)", r.Phase1Cost, r.FinalCost)
	}
	if r.SavingsPct() < 0 || r.DeltaPct() < 0 {
		t.Errorf("percentages: savings %g, delta %g", r.SavingsPct(), r.DeltaPct())
	}
}

func TestRunManyMatchesRunOne(t *testing.T) {
	ps := []testutil.Params{small(), func() testutil.Params { p := small(); p.Alpha = 0.7; return p }()}
	testutil.SetProcs(t, 2)
	many, err := RunMany(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		one, err := RunOne(p)
		if err != nil {
			t.Fatal(err)
		}
		if many[i].FinalCost != one.FinalCost {
			t.Errorf("config %d: RunMany %v != RunOne %v", i, many[i].FinalCost, one.FinalCost)
		}
	}
}

func TestRunAveraged(t *testing.T) {
	ps := []testutil.Params{small()}
	avg, err := RunAveraged(ps, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Manual average over the three decorrelated seeds.
	var want float64
	for r := 0; r < 3; r++ {
		p := small().WithDefaults()
		p.Seed += int64(r) * 104729
		one, err := RunOne(p)
		if err != nil {
			t.Fatal(err)
		}
		want += float64(one.FinalCost)
	}
	want /= 3
	if got := float64(avg[0].FinalCost); got != want {
		t.Errorf("averaged = %g, want %g", got, want)
	}
	// repeats <= 1 falls through to RunMany.
	single, err := RunAveraged(ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := RunOne(ps[0])
	if single[0].FinalCost != one.FinalCost {
		t.Error("repeats=1 must match RunOne")
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Fig5(small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 3 srates + baseline", len(fig.Series))
	}
	noIS := fig.Series[3]
	for si, s := range fig.Series {
		if !s.Monotone(+1, 1e-9) {
			t.Errorf("series %q not increasing in nrate", s.Name)
		}
		if si < 3 {
			for i := range s.Points {
				if s.Points[i].Y > noIS.Points[i].Y+1e-6 {
					t.Errorf("series %q above the no-IS baseline at x=%g", s.Name, s.Points[i].X)
				}
			}
		}
	}
	// The IS advantage grows with the network rate (paper §5.2).
	first := noIS.Points[0].Y - fig.Series[0].Points[0].Y
	last := noIS.Points[len(noIS.Points)-1].Y - fig.Series[0].Points[len(noIS.Points)-1].Y
	if last <= first {
		t.Errorf("IS advantage did not grow: first gap %g, last gap %g", first, last)
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if !s.Monotone(+1, 1e-9) {
			t.Errorf("series %q not increasing in nrate", s.Name)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	with, netOnly := fig.Series[0], fig.Series[1]
	// Network-only is flat in srate.
	for i := 1; i < netOnly.Len(); i++ {
		if netOnly.Points[i].Y != netOnly.Points[0].Y {
			t.Error("network-only baseline must not depend on srate")
		}
	}
	// With-IS stays at or below the baseline and rises toward it.
	for i := range with.Points {
		if with.Points[i].Y > netOnly.Points[i].Y+1e-6 {
			t.Errorf("with-IS above network-only at srate=%g", with.Points[i].X)
		}
	}
	if !with.Monotone(+1, 0.02) {
		t.Errorf("with-IS not (approximately) increasing in srate: %v", with.Ys())
	}
	// Saturation: the climb over the last half is smaller than over the
	// first half (paper: "less sensitive ... as the rate increases").
	n := with.Len()
	firstHalf := with.Points[n/2].Y - with.Points[0].Y
	lastHalf := with.Points[n-1].Y - with.Points[n/2].Y
	if lastHalf >= firstHalf {
		t.Errorf("no saturation: first-half climb %g, last-half climb %g", firstHalf, lastHalf)
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Larger storage is never more expensive, and the gap is larger at
	// high skew (α = 0.1) than at near-uniform (α = 0.9).
	s5, s11 := fig.Series[0], fig.Series[2]
	for i := range s5.Points {
		if s11.Points[i].Y > s5.Points[i].Y+1e-6 {
			t.Errorf("11 GB dearer than 5 GB at alpha=%g", s5.Points[i].X)
		}
	}
	gapSkewed := s5.Points[0].Y - s11.Points[0].Y
	gapUniform := s5.Points[s5.Len()-1].Y - s11.Points[s11.Len()-1].Y
	if gapSkewed <= gapUniform {
		t.Errorf("capacity advantage should shrink with alpha: skewed gap %g, uniform gap %g", gapSkewed, gapUniform)
	}
	// Cost grows as access becomes less biased: compare the ends.
	if s5.Points[s5.Len()-1].Y <= s5.Points[0].Y {
		t.Error("cost did not increase from alpha=0.1 to alpha=0.9")
	}
}

func TestTable5Study(t *testing.T) {
	res, err := RunTable5(Table5Config{
		Base:       small(),
		SRates:     []float64{3, 6},
		Capacities: []float64{4, 8},
		NRates:     []float64{300, 700},
		Alphas:     []float64{0.1, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCases != 16 {
		t.Fatalf("cases = %d, want 16", res.TotalCases)
	}
	if res.CostAffected == 0 {
		t.Fatal("no cost-affected cases; the rig should overflow")
	}
	if res.CostAffected > res.TotalCases {
		t.Error("affected exceeds total")
	}
	for _, m := range allMetrics {
		if res.Best[m] > res.CostAffected {
			t.Errorf("metric %v wins %d of %d", m, res.Best[m], res.CostAffected)
		}
	}
	if res.Best2or4 > res.CostAffected {
		t.Error("2-or-4 wins exceed affected")
	}
	// At least one metric wins every affected case.
	sum := 0
	for _, m := range allMetrics {
		sum += res.Best[m]
	}
	if sum < res.CostAffected {
		t.Error("some affected case has no winning metric")
	}
	if res.DeltaPct.N != res.CostAffected {
		t.Error("delta summary count mismatch")
	}
	if res.DeltaPct.Min < -1e-9 {
		t.Errorf("negative resolution delta %g under Method 4", res.DeltaPct.Min)
	}
	if res.BestPct(sorp.SpacePerCost) < 0 || res.Best2or4Pct() > 100 {
		t.Error("percentage helpers out of range")
	}
	// Unresolved (no-overflow) cases must have all-equal final costs.
	for _, c := range res.Cases {
		if !c.Resolved {
			for _, m := range allMetrics {
				if c.FinalCost[m] != c.Phase1Cost {
					t.Error("unresolved case has diverging costs")
				}
			}
		}
	}
}

func TestFigOnlineShape(t *testing.T) {
	fig, err := FigOnline(small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	offline, onl, direct := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range offline.Points {
		// Foreknowledge is worth money: offline <= online <= ... online can
		// beat direct or not depending on skew, but offline must beat both.
		if offline.Points[i].Y > onl.Points[i].Y*1.001 {
			t.Errorf("alpha=%g: offline %g worse than online %g",
				offline.Points[i].X, offline.Points[i].Y, onl.Points[i].Y)
		}
		if offline.Points[i].Y > direct.Points[i].Y*1.001 {
			t.Errorf("alpha=%g: offline %g worse than direct %g",
				offline.Points[i].X, offline.Points[i].Y, direct.Points[i].Y)
		}
	}
}

func TestFigReplicationShape(t *testing.T) {
	fig, err := FigReplication(small(), 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	dynamic, static, direct := fig.Series[0], fig.Series[2], fig.Series[3]
	for i := range dynamic.Points {
		// Dynamic caching dominates both static-only and no caching.
		if dynamic.Points[i].Y > static.Points[i].Y*1.001 {
			t.Errorf("alpha=%g: dynamic %g worse than static %g",
				dynamic.Points[i].X, dynamic.Points[i].Y, static.Points[i].Y)
		}
		if dynamic.Points[i].Y > direct.Points[i].Y*1.001 {
			t.Errorf("alpha=%g: dynamic %g worse than direct %g",
				dynamic.Points[i].X, dynamic.Points[i].Y, direct.Points[i].Y)
		}
		// Static replication beats doing nothing at high skew.
		if i == 0 && static.Points[i].Y >= direct.Points[i].Y {
			t.Errorf("alpha=%g: static %g not cheaper than direct %g",
				static.Points[i].X, static.Points[i].Y, direct.Points[i].Y)
		}
	}
}

func TestFigLocalityShape(t *testing.T) {
	fig, err := FigLocality(small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	with, direct := fig.Series[0], fig.Series[1]
	// The scheduler never loses to direct at any locality.
	for i := range with.Points {
		if with.Points[i].Y > direct.Points[i].Y*1.001 {
			t.Errorf("locality=%g: scheduler %g worse than direct %g",
				with.Points[i].X, with.Points[i].Y, direct.Points[i].Y)
		}
	}
	// Decorrelated tastes fragment sharing: full locality costs at least
	// as much as a shared ranking (averaged over seeds; generous slack for
	// sampling noise).
	if with.Points[len(with.Points)-1].Y < with.Points[0].Y*0.98 {
		t.Errorf("full locality %g cheaper than shared ranking %g",
			with.Points[len(with.Points)-1].Y, with.Points[0].Y)
	}
}

// Every sweep fans out on the shared pool, one job per index, and merges in
// index order: the figures and the table are the same at any GOMAXPROCS.
func TestFiguresDoNotDependOnProcs(t *testing.T) {
	type outputs struct {
		fig7, online, replication *Figure
		table5                    *Table5Result
	}
	at := func(procs int) outputs {
		testutil.SetProcs(t, procs)
		var o outputs
		var err error
		if o.fig7, err = Fig7(small(), 2); err != nil {
			t.Fatal(err)
		}
		if o.online, err = FigOnline(small(), 2); err != nil {
			t.Fatal(err)
		}
		if o.replication, err = FigReplication(small(), 0.25, 2); err != nil {
			t.Fatal(err)
		}
		if o.table5, err = RunTable5(Table5Config{
			Base:       small(),
			SRates:     []float64{3, 6},
			Capacities: []float64{4, 8},
			NRates:     []float64{300, 700},
			Alphas:     []float64{0.1, 0.5},
		}); err != nil {
			t.Fatal(err)
		}
		return o
	}
	one, two := at(1), at(2)
	for _, c := range []struct {
		name     string
		one, two any
	}{
		{"Fig7", one.fig7, two.fig7},
		{"FigOnline", one.online, two.online},
		{"FigReplication", one.replication, two.replication},
		{"RunTable5", one.table5, two.table5},
	} {
		if !reflect.DeepEqual(c.one, c.two) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 2:\n%+v\n%+v", c.name, c.one, c.two)
		}
	}
}
