// Package cost implements the paper's cost model (§2.2): the mapping Ψ
// from a service schedule to a single monetary quantity, the sum of the
// storage cost of every residency (Eq. 2–3) and the network cost of every
// delivery (Eq. 4).
//
//	Ψ(S) = Σ Ψc(c_i) + Σ Ψd(d_i)
//
// Storage charges the amortized time–space product of a copy at the
// storage's rate; the network charges the amortized stream volume P·B at
// the route's per-byte rate (summed per hop, or a single end-to-end rate).
package cost

import (
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// Model evaluates Ψ for one topology, rate book and catalog.
type Model struct {
	book    *pricing.Book
	table   *routing.Table
	catalog *media.Catalog
}

// NewModel builds a cost model. The routing table must have been built from
// the same rate book.
func NewModel(book *pricing.Book, table *routing.Table, catalog *media.Catalog) *Model {
	return &Model{book: book, table: table, catalog: catalog}
}

// NewUniformModel wires a uniform-rate cost model over a topology and
// catalog. Rates use the paper's quoted units: srate in $/(GB·hour), nrate
// in $/GB.
func NewUniformModel(topo *topology.Topology, catalog *media.Catalog, srateGBHour, nrateGB float64) *Model {
	book := pricing.Uniform(topo, pricing.PerGBHour(srateGBHour), pricing.PerGB(nrateGB))
	return NewModel(book, routing.NewTable(book), catalog)
}

// Book returns the model's rate book.
func (m *Model) Book() *pricing.Book { return m.book }

// Table returns the model's routing table.
func (m *Model) Table() *routing.Table { return m.table }

// Catalog returns the model's catalog.
func (m *Model) Catalog() *media.Catalog { return m.catalog }

// SpanCost returns the storage cost of holding a copy of a file with the
// given size and playback length for a caching span Δ (Eq. 2–3):
//
//	long  (Δ ≥ P): srate · size · (Δ + P/2)
//	short (Δ < P): srate · size · (Δ/P) · (Δ + P/2)
//
// The function is zero at Δ = 0, strictly increasing, and continuous at the
// short/long boundary Δ = P (both forms give 3P/2·srate·size).
func SpanCost(srate pricing.SRate, size units.Bytes, playback, span simtime.Duration) units.Money {
	if span < 0 || playback <= 0 {
		return 0
	}
	base := float64(srate) * size.Float() * (span.Seconds() + playback.Seconds()/2)
	if span >= playback {
		return units.Money(base)
	}
	return units.Money(base * span.Seconds() / playback.Seconds())
}

// ResidencyCost returns Ψc(c) for a residency of the model's catalog.
func (m *Model) ResidencyCost(c schedule.Residency) units.Money {
	v := m.catalog.Video(c.Video)
	return SpanCost(m.book.SRate(c.Loc), v.Size, v.Playback, c.Span())
}

// ExtendCost returns the marginal storage cost of extending a residency's
// LastService from its current value to newLast: Ψc(Δ') − Ψc(Δ). This is
// what the greedy charges for serving one more request from a cached copy.
func (m *Model) ExtendCost(c schedule.Residency, newLast simtime.Time) units.Money {
	v := m.catalog.Video(c.Video)
	rate := m.book.SRate(c.Loc)
	oldCost := SpanCost(rate, v.Size, v.Playback, c.Span())
	newCost := SpanCost(rate, v.Size, v.Playback, newLast.Sub(c.Load))
	return newCost - oldCost
}

// DeliveryCost returns Ψd(d) for a delivery: the amortized stream volume
// P·B priced at the route's rate. In PerHop mode the actual route's summed
// edge rates are charged; in EndToEnd mode the source→destination rate from
// the routing table (with any explicit override) is charged.
func (m *Model) DeliveryCost(d schedule.Delivery) units.Money {
	v := m.catalog.Video(d.Video)
	volume := v.StreamBytes().Float()
	var rate pricing.NRate
	if m.book.Mode() == pricing.EndToEnd {
		rate = m.table.Rate(d.Src(), d.Dst())
	} else {
		rate = m.book.RouteRate(d.Route)
	}
	return units.Money(volume * float64(rate))
}

// TransferCost returns the network cost of one stream of the given video
// from src to dst along the cheapest route, without materializing a
// delivery. This is the quantity the greedy compares across candidate
// supply points.
func (m *Model) TransferCost(video media.VideoID, src, dst topology.NodeID) units.Money {
	v := m.catalog.Video(video)
	return units.Money(v.StreamBytes().Float() * float64(m.table.Rate(src, dst)))
}

// StreamCost prices one stream of precomputed volume from src to dst —
// TransferCost with the per-call catalog lookup hoisted out: stream must
// be the video's StreamBytes().Float(). It exists for the greedy's
// innermost candidate loop, which prices every supply point of every
// request and amortizes the video-dependent work across the loop.
func (m *Model) StreamCost(stream float64, src, dst topology.NodeID) units.Money {
	return units.Money(stream * float64(m.table.Rate(src, dst)))
}

// CandidateCost prices serving one request from an existing copy: the
// marginal storage of extending the copy to newLast (ExtendCost) plus one
// stream from the copy's node to dst (TransferCost), with the per-call
// catalog lookups hoisted out like StreamCost. oldCost must be the copy's
// current span cost, SpanCost(SRate(c.Loc), v.Size, v.Playback, c.Span());
// the greedy caches it per residency so pricing a candidate costs one
// SpanCost, not two. The arithmetic matches ExtendCost + TransferCost bit
// for bit.
func (m *Model) CandidateCost(v *media.Video, stream float64, oldCost units.Money,
	c *schedule.Residency, newLast simtime.Time, dst topology.NodeID) units.Money {
	rate := m.book.SRate(c.Loc)
	newCost := SpanCost(rate, v.Size, v.Playback, newLast.Sub(c.Load))
	return newCost - oldCost + units.Money(stream*float64(m.table.Rate(c.Loc, dst)))
}

// PrePlacementCost returns the bulk-transfer cost of loading a pre-placed
// copy from the warehouse: the file's size priced at the cheapest route
// rate times the book's off-peak preload factor. Unlike a playback stream
// (charged P·B), a pre-load moves exactly the file once, off the
// real-time path.
func (m *Model) PrePlacementCost(c schedule.Residency) units.Money {
	v := m.catalog.Video(c.Video)
	rate := float64(m.table.Rate(m.book.Topology().Warehouse(), c.Loc))
	return units.Money(v.Size.Float() * rate * m.book.PreloadFactor())
}

// FileCost returns Ψ(S_i) for one file schedule, pre-placement transfers
// included.
func (m *Model) FileCost(fs *schedule.FileSchedule) units.Money {
	return m.FileCostFrom(fs, Fold{})
}

// Fold is where FileCost's sum stands once it has priced a file's first N
// deliveries: Sum is the left fold of DeliveryCost over them, from zero. A
// caller that prices the same file prefix at every commit — the frozen
// history of a rolling horizon — keeps the fold and prices only what follows
// it.
type Fold struct {
	N   int
	Sum units.Money
}

// FoldOn extends f, a fold of the first f.N deliveries of ds, over the rest
// of ds.
func (m *Model) FoldOn(f Fold, ds []schedule.Delivery) Fold {
	for _, d := range ds[f.N:] {
		f.Sum += m.DeliveryCost(d)
	}
	f.N = len(ds)
	return f
}

// FileCostFrom is FileCost of a file whose first f.N deliveries f folds: it
// goes on from the fold over the remaining deliveries, then adds the
// residencies, in FileCost's order, so its result is FileCost's bit for bit.
func (m *Model) FileCostFrom(fs *schedule.FileSchedule, f Fold) units.Money {
	total := m.FoldOn(f, fs.Deliveries).Sum
	for _, c := range fs.Residencies {
		total += m.ResidencyCost(c)
		if c.FedBy == schedule.PrePlacedFeed {
			total += m.PrePlacementCost(c)
		}
	}
	return total
}

// ScheduleCost returns Ψ(S) for the global schedule.
func (m *Model) ScheduleCost(s *schedule.Schedule) units.Money {
	return m.ScheduleCostFrom(s, nil)
}

// ScheduleCostFrom is ScheduleCost with each file priced from its video's
// fold in folds (FileCostFrom; a video without one from zero), bit for bit
// ScheduleCost's.
func (m *Model) ScheduleCostFrom(s *schedule.Schedule, folds map[media.VideoID]Fold) units.Money {
	var total units.Money
	for _, id := range s.VideoIDs() {
		total += m.FileCostFrom(s.Files[id], folds[id])
	}
	return total
}

// Breakdown separates a schedule's cost into its storage and network
// components, the decomposition the paper's Experiment 2 discusses.
type Breakdown struct {
	Storage units.Money
	Network units.Money
}

// Total returns storage plus network cost.
func (b Breakdown) Total() units.Money { return b.Storage + b.Network }

// CostBreakdown returns the storage/network decomposition of Ψ(S).
// Pre-placement bulk transfers count as network cost.
func (m *Model) CostBreakdown(s *schedule.Schedule) Breakdown {
	var b Breakdown
	for _, fs := range s.Files {
		for _, d := range fs.Deliveries {
			b.Network += m.DeliveryCost(d)
		}
		for _, c := range fs.Residencies {
			b.Storage += m.ResidencyCost(c)
			if c.FedBy == schedule.PrePlacedFeed {
				b.Network += m.PrePlacementCost(c)
			}
		}
	}
	return b
}
