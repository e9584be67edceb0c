package testutil

import (
	"runtime/debug"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Fig2 bundles the worked example of paper §3.2: VW—IS1—IS2, one user at
// IS1 and two at IS2, all requesting the same title at 1:00, 2:30 and
// 4:00 pm (times measured from 1:00 pm).
type Fig2 struct {
	Topo     *topology.Topology
	Model    *cost.Model
	Requests workload.Set
	VW       topology.NodeID
	IS1      topology.NodeID
	IS2      topology.NodeID
}

// CentsPerMbit converts the paper's network rate unit — cents per
// (Mbit/s · s), i.e. cents per megabit — to the internal $/byte rate.
func CentsPerMbit(c float64) pricing.NRate { return pricing.NRate(c / 100 * 8 / 1e6) }

// NewFig2 builds the example with the rates that reproduce the paper's
// dollar figures: nrate(VW,IS1) = 0.2 ¢/Mbit, nrate(IS1,IS2) = 0.1 ¢/Mbit,
// srate = $1/GB·h. Capacity is generous so phase 1 is unconstrained.
func NewFig2() (*Fig2, error) {
	b := topology.NewBuilder()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", 10*units.GB)
	is2 := b.Storage("IS2", 10*units.GB)
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	cat, err := media.Uniform(1, units.GBf(2.5), 90*simtime.Minute, units.Mbps(6))
	if err != nil {
		return nil, err
	}
	book := pricing.Uniform(topo, 0, 0)
	e01, _ := topo.EdgeBetween(vw, is1)
	e12, _ := topo.EdgeBetween(is1, is2)
	book.SetNRate(e01, CentsPerMbit(0.2))
	book.SetNRate(e12, CentsPerMbit(0.1))
	if err := book.SetSRate(is1, pricing.PerGBHour(1)); err != nil {
		return nil, err
	}
	if err := book.SetSRate(is2, pricing.PerGBHour(1)); err != nil {
		return nil, err
	}
	table := routing.NewTable(book)
	model := cost.NewModel(book, table, cat)

	u1 := topo.UsersAt(is1)[0]
	u23 := topo.UsersAt(is2)
	reqs := workload.Set{
		{User: u1, Video: 0, Start: 0},
		{User: u23[0], Video: 0, Start: simtime.Time(90 * simtime.Minute)},
		{User: u23[1], Video: 0, Start: simtime.Time(180 * simtime.Minute)},
	}
	return &Fig2{Topo: topo, Model: model, Requests: reqs, VW: vw, IS1: is1, IS2: is2}, nil
}

// RaceBuild reports whether the running binary was built with -race, whose
// instrumentation allocates for its own bookkeeping and makes sync.Pool
// drop a share of what it is handed: allocation budgets skip under it.
func RaceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
