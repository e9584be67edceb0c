// Package testutil is the rig package: it builds the environments tests,
// benchmarks and the experiment harness run on — the paper's Fig. 2 worked
// example, whose published dollar figures pin down the whole cost model, and
// the §5.1 evaluation setup at any scale — and the schedule encoding's mirror
// (WireSchedule) the encoder and decoder are tested against. It imports the
// model, workload and schedule packages only, so a core package's tests build
// a rig without compiling the rest of the lab (layers_test.go).
//
// Calibration notes (recorded per the reproduction rules):
//
//   - Table 4 quotes the storage charging rate as "3..8 (1Gbyte·sec)"; taken
//     literally per GB·second a single cached hour would dwarf the network
//     cost of the whole workload and no schedule would ever cache, which
//     contradicts every figure. The figures are consistent with a per
//     GB·HOUR rate (Fig. 7's sweep to 300 then saturating at the
//     network-only cost pins this), so rates here are $/GB·hour.
//   - The paper's Fig. 4 topology is unpublished; topology.Paper is a
//     deterministic 20-node metro hierarchy at the same scale.
//   - Each of the 190 users reserves one title per cycle over a 12-hour
//     reservation window (the paper does not state the batch density; one
//     request per user is the natural Video-On-Reservation reading).
package testutil

import (
	"fmt"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// PaperRig is a priced instance of the paper's §5.1 environment: a metro
// topology, a generated catalog and uniform rates.
type PaperRig struct {
	Topo    *topology.Topology
	Catalog *media.Catalog
	Book    *pricing.Book
	Model   *cost.Model
}

// NewPaperRig builds a (scaled-down if titles/storages are small) instance
// of the paper's §5.1 environment with uniform rates.
func NewPaperRig(storages, usersPer, titles int, capacity units.Bytes, srate pricing.SRate, nrate pricing.NRate, seed int64) (*PaperRig, error) {
	topo := topology.Metro(topology.GenConfig{
		Storages: storages, UsersPerStorage: usersPer, Capacity: capacity,
	}, seed)
	cat, err := media.Generate(media.GenConfig{Titles: titles, Seed: seed})
	if err != nil {
		return nil, err
	}
	book := pricing.Uniform(topo, srate, nrate)
	return &PaperRig{
		Topo:    topo,
		Catalog: cat,
		Book:    book,
		Model:   cost.NewModel(book, routing.NewTable(book), cat),
	}, nil
}

// Params is one experimental configuration. Zero fields take the paper's
// §5.1 defaults.
type Params struct {
	Storages        int     // intermediate storages (default 19)
	UsersPerStorage int     // users per neighborhood (default 10)
	Titles          int     // catalog size (default 500)
	CapacityGB      float64 // per-storage capacity in GB (default 5)
	SRateGBHour     float64 // storage rate, $/(GB·hour) (default 5)
	NRateGB         float64 // network rate, $/GB per hop (default 500)
	Alpha           float64 // Zipf skew (default 0.271)
	Locality        float64 // regional taste variation in [0,1] (default 0)
	WindowHours     int     // reservation window (default 12)
	RequestsPerUser int     // reservations per user (default 1)
	Seed            int64   // master seed (default 1997)
}

// WithDefaults fills zero fields with the paper's defaults.
func (p Params) WithDefaults() Params {
	if p.Storages == 0 {
		p.Storages = 19
	}
	if p.UsersPerStorage == 0 {
		p.UsersPerStorage = 10
	}
	if p.Titles == 0 {
		p.Titles = 500
	}
	if p.CapacityGB == 0 {
		p.CapacityGB = 5
	}
	if p.SRateGBHour == 0 {
		p.SRateGBHour = 5
	}
	if p.NRateGB == 0 {
		p.NRateGB = 500
	}
	if p.Alpha == 0 {
		p.Alpha = 0.271
	}
	if p.WindowHours == 0 {
		p.WindowHours = 12
	}
	if p.RequestsPerUser == 0 {
		p.RequestsPerUser = 1
	}
	if p.Seed == 0 {
		p.Seed = 1997
	}
	return p
}

// SRate converts the quoted per-GB·hour rate to the internal unit.
func (p Params) SRate() pricing.SRate { return pricing.PerGBHour(p.SRateGBHour) }

// NRate converts the quoted per-GB rate to the internal unit.
func (p Params) NRate() pricing.NRate { return pricing.PerGB(p.NRateGB) }

func (p Params) String() string {
	return fmt.Sprintf("srate=%g/GBh nrate=%g/GB cap=%gGB alpha=%g", p.SRateGBHour, p.NRateGB, p.CapacityGB, p.Alpha)
}

// Rig is a fully constructed experimental environment for one Params: the
// priced environment and the request batch drawn on it.
type Rig struct {
	PaperRig
	Params   Params
	Requests workload.Set
}

// Build constructs the rig: topology, catalog, rates, routing and the
// request batch. Construction is deterministic in Params.
func Build(p Params) (*Rig, error) {
	p = p.WithDefaults()
	env, err := NewPaperRig(p.Storages, p.UsersPerStorage, p.Titles, units.GBf(p.CapacityGB), p.SRate(), p.NRate(), p.Seed)
	if err != nil {
		return nil, fmt.Errorf("testutil: %w", err)
	}
	reqs, err := workload.Generate(env.Topo, env.Catalog, workload.Config{
		Alpha:           p.Alpha,
		Locality:        p.Locality,
		Window:          simtime.Duration(p.WindowHours) * simtime.Hour,
		RequestsPerUser: p.RequestsPerUser,
		Seed:            p.Seed + 7919, // decouple workload stream from structural seed
	})
	if err != nil {
		return nil, fmt.Errorf("testutil: %w", err)
	}
	return &Rig{PaperRig: *env, Params: p, Requests: reqs}, nil
}
