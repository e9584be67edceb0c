package cost

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// fig2 builds the paper's worked example (§3.2, Fig. 2): VW—IS1—IS2 with
// U1 local to IS1 and U2, U3 local to IS2, requesting the same 90-minute,
// 2.5 GB, 6 Mbps title at 1:00, 2:30 and 4:00 pm.
//
// Rates: nrate(VW,IS1) = 0.2 and nrate(IS1,IS2) = 0.1 cents/(Mbit/s · s)
// — i.e. cents per megabit — and srate(IS1) = $1/(GB·hour), the values
// that reproduce the paper's dollar figures exactly.
func fig2(t *testing.T) (*Model, *topology.Topology) {
	t.Helper()
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1) // U1
	b.AttachUsers(is2, 2) // U2, U3
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := media.Uniform(1, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		t.Fatal(err)
	}
	book := pricing.Uniform(topo, 0, 0)
	// 0.2 cents per Mbit = $0.002 / (1e6/8 bytes) = $1.6e-8 per byte.
	centsPerMbit := func(c float64) pricing.NRate { return pricing.NRate(c / 100 * 8 / 1e6) }
	e01, _ := topo.EdgeBetween(vw, is1)
	e12, _ := topo.EdgeBetween(is1, is2)
	book.SetNRate(e01, centsPerMbit(0.2))
	book.SetNRate(e12, centsPerMbit(0.1))
	// $1 per GB·hour.
	perGBHour := pricing.SRate(1.0 / (1e9 * 3600))
	if err := book.SetSRate(is1, perGBHour); err != nil {
		t.Fatal(err)
	}
	if err := book.SetSRate(is2, perGBHour); err != nil {
		t.Fatal(err)
	}
	table := routing.NewTable(book)
	return NewModel(book, table, cat), topo
}

// Times of the three requests, measured from 1:00 pm.
const (
	tU1 = simtime.Time(0)
	tU2 = simtime.Time(90 * 60)  // 2:30 pm
	tU3 = simtime.Time(180 * 60) // 4:00 pm
)

func fig2Requests(topo *topology.Topology) workload.Set {
	is1, _ := topo.Lookup("IS1")
	is2, _ := topo.Lookup("IS2")
	u1 := topo.UsersAt(is1)[0]
	u23 := topo.UsersAt(is2)
	return workload.Set{
		{User: u1, Video: 0, Start: tU1},
		{User: u23[0], Video: 0, Start: tU2},
		{User: u23[1], Video: 0, Start: tU3},
	}
}

func route(t *testing.T, m *Model, src, dst topology.NodeID) routing.Route {
	t.Helper()
	r, err := m.Table().Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPaperFig2ScheduleS1 reproduces schedule S1: all three requests served
// directly from the warehouse. Ψ(S1) = $259.20.
func TestPaperFig2ScheduleS1(t *testing.T) {
	m, topo := fig2(t)
	reqs := fig2Requests(topo)
	is1, _ := topo.Lookup("IS1")
	is2, _ := topo.Lookup("IS2")
	vw := topo.Warehouse()

	fs := &schedule.FileSchedule{Video: 0}
	for _, r := range reqs {
		dst := is1
		if topo.User(r.User).Local == is2 {
			dst = is2
		}
		fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
			Video: 0, User: r.User, Start: r.Start,
			Route: route(t, m, vw, dst), SourceResidency: schedule.NoResidency,
		})
	}
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(topo, m.Catalog(), reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := m.ScheduleCost(s)
	if !got.ApproxEqual(units.Money(259.2), 1e-6) {
		t.Errorf("Ψ(S1) = %v, want $259.20", got)
	}
	b := m.CostBreakdown(s)
	if b.Storage != 0 {
		t.Errorf("S1 storage cost = %v, want 0", b.Storage)
	}
	if !b.Total().ApproxEqual(got, 1e-9) {
		t.Error("breakdown total mismatch")
	}
}

// TestPaperFig2ScheduleS2 reproduces schedule S2: U1 served from the
// warehouse while IS1 caches the stream; U2 and U3 are served from the
// cached copy. Ψ(S2) = $138.975.
func TestPaperFig2ScheduleS2(t *testing.T) {
	m, topo := fig2(t)
	reqs := fig2Requests(topo)
	is1, _ := topo.Lookup("IS1")
	is2, _ := topo.Lookup("IS2")
	vw := topo.Warehouse()
	u23 := topo.UsersAt(is2)

	fs := &schedule.FileSchedule{Video: 0}
	// Delivery 0: VW -> IS1 serving U1; the stream feeds the cache at IS1.
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: reqs[0].User, Start: tU1,
		Route: route(t, m, vw, is1), SourceResidency: schedule.NoResidency,
	})
	// Deliveries 1, 2: IS1 -> IS2 from the cached copy.
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: u23[0], Start: tU2,
		Route: route(t, m, is1, is2), SourceResidency: 0,
	})
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: u23[1], Start: tU3,
		Route: route(t, m, is1, is2), SourceResidency: 0,
	})
	fs.Residencies = append(fs.Residencies, schedule.Residency{
		Video: 0, Loc: is1, Src: vw,
		Load: tU1, LastService: tU3,
		FedBy: 0,
	})
	s := schedule.New()
	s.Put(fs)
	if err := s.Validate(topo, m.Catalog(), reqs); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := m.ScheduleCost(s)
	if !got.ApproxEqual(units.Money(138.975), 1e-6) {
		t.Errorf("Ψ(S2) = %v, want $138.975", got)
	}
	// Component check: storage $9.375, network $64.8 + 2×$32.4.
	b := m.CostBreakdown(s)
	if !b.Storage.ApproxEqual(units.Money(9.375), 1e-6) {
		t.Errorf("S2 storage = %v, want $9.375", b.Storage)
	}
	if !b.Network.ApproxEqual(units.Money(129.6), 1e-6) {
		t.Errorf("S2 network = %v, want $129.60", b.Network)
	}
}

func TestSpanCostShape(t *testing.T) {
	srate := pricing.PerGBSec(5)
	size := units.GBf(2)
	P := 90 * simtime.Minute

	if SpanCost(srate, size, P, 0) != 0 {
		t.Error("SpanCost(Δ=0) must be 0")
	}
	if SpanCost(srate, size, P, -1) != 0 {
		t.Error("SpanCost(Δ<0) must be 0")
	}
	if SpanCost(srate, size, 0, 100) != 0 {
		t.Error("SpanCost with zero playback must be 0")
	}
	// Continuity at Δ = P.
	below := SpanCost(srate, size, P, simtime.Duration(P)-1)
	at := SpanCost(srate, size, P, simtime.Duration(P))
	above := SpanCost(srate, size, P, simtime.Duration(P)+1)
	if !(below < at && at < above) {
		t.Errorf("not monotone around Δ=P: %v %v %v", below, at, above)
	}
	if float64(at-below) > float64(at)*0.001 {
		t.Errorf("discontinuity at Δ=P: %v vs %v", below, at)
	}
	// Long form: srate·size·(Δ+P/2).
	want := float64(srate) * size.Float() * (2*P.Seconds() + P.Seconds()/2)
	if got := SpanCost(srate, size, P, 2*P); math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("long SpanCost = %v, want %g", got, want)
	}
	// Short form: srate·size·(Δ/P)·(Δ+P/2).
	half := P / 2
	wantShort := float64(srate) * size.Float() * 0.5 * (half.Seconds() + P.Seconds()/2)
	if got := SpanCost(srate, size, P, half); math.Abs(float64(got)-wantShort) > 1e-6 {
		t.Errorf("short SpanCost = %v, want %g", got, wantShort)
	}
}

func TestPropertySpanCostMonotone(t *testing.T) {
	srate := pricing.PerGBSec(3)
	size := units.GBf(3.3)
	P := 90 * simtime.Minute
	f := func(a, b uint32) bool {
		d1 := simtime.Duration(a % 100000)
		d2 := simtime.Duration(b % 100000)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return SpanCost(srate, size, P, d1) <= SpanCost(srate, size, P, d2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendCostAdditive(t *testing.T) {
	m, topo := fig2(t)
	is1, _ := topo.Lookup("IS1")
	c := schedule.Residency{Video: 0, Loc: is1, Src: topo.Warehouse(), Load: 0, LastService: 0}
	// Extending 0 -> a -> b must equal extending 0 -> b.
	a := simtime.Time(40 * 60)
	b := simtime.Time(200 * 60)
	step1 := m.ExtendCost(c, a)
	c2 := c
	c2.LastService = a
	step2 := m.ExtendCost(c2, b)
	direct := m.ExtendCost(c, b)
	if !(step1 + step2).ApproxEqual(direct, 1e-9) {
		t.Errorf("ExtendCost not additive: %v + %v != %v", step1, step2, direct)
	}
	// Extending to the current LastService is free.
	if m.ExtendCost(c2, a) != 0 {
		t.Error("no-op extension must cost 0")
	}
}

func TestDeliveryCostModes(t *testing.T) {
	m, topo := fig2(t)
	vw := topo.Warehouse()
	is2, _ := topo.Lookup("IS2")
	d := schedule.Delivery{
		Video: 0, User: 1, Start: 0,
		Route: route(t, m, vw, is2), SourceResidency: schedule.NoResidency,
	}
	perHop := m.DeliveryCost(d)
	if !perHop.ApproxEqual(units.Money(97.2), 1e-6) {
		t.Errorf("per-hop VW->IS2 = %v, want $97.20", perHop)
	}
	m.Book().SetMode(pricing.EndToEnd)
	if got := m.DeliveryCost(d); !got.ApproxEqual(perHop, 1e-9) {
		t.Errorf("end-to-end default = %v, want %v", got, perHop)
	}
	m.Book().SetEndToEnd(vw, is2, 0)
	if got := m.DeliveryCost(d); got != 0 {
		t.Errorf("overridden end-to-end = %v, want 0", got)
	}
	m.Book().SetMode(pricing.PerHop)
	// TransferCost agrees with DeliveryCost along the cheapest route.
	if got := m.TransferCost(0, vw, is2); !got.ApproxEqual(perHop, 1e-9) {
		t.Errorf("TransferCost = %v, want %v", got, perHop)
	}
}

func TestResidencyCostZeroSpan(t *testing.T) {
	m, topo := fig2(t)
	is1, _ := topo.Lookup("IS1")
	c := schedule.Residency{Video: 0, Loc: is1, Src: topo.Warehouse(), Load: 100, LastService: 100}
	if got := m.ResidencyCost(c); got != 0 {
		t.Errorf("zero-span residency cost = %v, want 0 (tentative caches are free)", got)
	}
}

func TestFileCostSumsComponents(t *testing.T) {
	m, topo := fig2(t)
	vw := topo.Warehouse()
	is1, _ := topo.Lookup("IS1")
	fs := &schedule.FileSchedule{Video: 0}
	fs.Deliveries = append(fs.Deliveries, schedule.Delivery{
		Video: 0, User: 0, Start: 0, Route: route(t, m, vw, is1),
		SourceResidency: schedule.NoResidency,
	})
	fs.Residencies = append(fs.Residencies, schedule.Residency{
		Video: 0, Loc: is1, Src: vw, Load: 0, LastService: simtime.Time(2 * simtime.Hour), FedBy: 0,
	})
	want := m.DeliveryCost(fs.Deliveries[0]) + m.ResidencyCost(fs.Residencies[0])
	if got := m.FileCost(fs); !got.ApproxEqual(want, 1e-9) {
		t.Errorf("FileCost = %v, want %v", got, want)
	}
}

// Property: SpanCost is linear in file size and continuous across the
// short/long boundary for arbitrary playback lengths.
func TestPropertySpanCostLinearityAndContinuity(t *testing.T) {
	f := func(pRaw, dRaw uint16, szRaw uint8) bool {
		P := simtime.Duration(pRaw%5000) + 1
		span := simtime.Duration(dRaw % 10000)
		size := units.Bytes(int64(szRaw)+1) * units.MB
		srate := pricing.PerGBSec(2)
		// Linearity: doubling the size doubles the cost.
		a := SpanCost(srate, size, P, span)
		b := SpanCost(srate, 2*size, P, span)
		if math.Abs(float64(b-2*a)) > 1e-9*(1+math.Abs(float64(b))) {
			return false
		}
		// Continuity at the boundary: Δ=P−1 vs Δ=P within one second's
		// worth of cost.
		below := SpanCost(srate, size, P, P-1)
		at := SpanCost(srate, size, P, P)
		stepBound := float64(srate) * size.Float() * 3 // generous per-second bound
		return math.Abs(float64(at-below)) <= stepBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
