// Package pricing holds the charging-rate book of the cost model (paper
// §2.2): every intermediate storage has a storage charging rate srate in
// $/(byte·second), and every network link has a network charging rate nrate
// in $/byte. The warehouse stores all titles permanently at rate zero.
//
// The paper quotes rates in per-gigabyte units ("storage charging rate 3–8
// per GByte·sec", "network charging rate 300–1000 per GByte"); the PerGBSec
// and PerGB helpers convert those quoted values to the per-byte rates used
// internally.
package pricing

import (
	"fmt"
	"math/rand"

	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
)

// Mode selects how network transfers are charged (paper §2.2.2).
type Mode int

const (
	// PerHop charges a transfer the sum of the edge rates along its route.
	PerHop Mode = iota
	// EndToEnd charges a transfer a single source→destination rate. We
	// derive it as the cheapest per-hop route rate, which is how an
	// infrastructure operator quoting end-to-end prices would floor them;
	// explicit overrides are available via SetEndToEnd.
	EndToEnd
)

func (m Mode) String() string {
	switch m {
	case PerHop:
		return "per-hop"
	case EndToEnd:
		return "end-to-end"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SRate is a storage charging rate in $/(byte·second).
type SRate float64

// NRate is a network charging rate in $/byte.
type NRate float64

// PerGBSec converts a paper-style storage rate quoted per GByte·sec into
// the internal per-byte·sec rate.
func PerGBSec(v float64) SRate { return SRate(v / float64(units.GB)) }

// PerGBHour converts a storage rate quoted per GByte·hour — the calibration
// the paper's figures imply — into the internal per-byte·sec rate.
func PerGBHour(v float64) SRate { return SRate(v / (float64(units.GB) * 3600)) }

// PerGB converts a paper-style network rate quoted per GByte into the
// internal per-byte rate.
func PerGB(v float64) NRate { return NRate(v / float64(units.GB)) }

// Book is the rate book for one topology. It is immutable after
// construction except through the Set* methods, which are intended for
// experiment setup, not concurrent use.
type Book struct {
	topo    *topology.Topology
	mode    Mode
	srate   []SRate // indexed by NodeID
	nrate   []NRate // indexed by edge index
	e2e     map[[2]topology.NodeID]NRate
	preload float64 // bulk pre-load tariff factor (0 < f <= 1)
}

// Uniform builds a rate book charging every intermediate storage the same
// srate and every link the same nrate, the configuration used throughout
// the paper's parameter sweeps. The warehouse's srate is pinned to zero.
func Uniform(topo *topology.Topology, s SRate, n NRate) *Book {
	b := &Book{
		topo:    topo,
		mode:    PerHop,
		srate:   make([]SRate, topo.NumNodes()),
		nrate:   make([]NRate, topo.NumEdges()),
		preload: 1,
	}
	for _, node := range topo.Nodes() {
		if node.Kind == topology.KindStorage {
			b.srate[node.ID] = s
		}
	}
	for i := range b.nrate {
		b.nrate[i] = n
	}
	return b
}

// Topology returns the topology the book prices.
func (b *Book) Topology() *topology.Topology { return b.topo }

// Mode returns the network charging mode.
func (b *Book) Mode() Mode { return b.mode }

// SetMode switches between per-hop and end-to-end network charging.
func (b *Book) SetMode(m Mode) { b.mode = m }

// SRate returns the storage charging rate of node n (zero for the
// warehouse).
func (b *Book) SRate(n topology.NodeID) SRate { return b.srate[n] }

// SetSRate overrides the storage rate for one node. Setting a nonzero rate
// on the warehouse is rejected: the paper fixes srate(VW)=0.
func (b *Book) SetSRate(n topology.NodeID, s SRate) error {
	if b.topo.Node(n).Kind == topology.KindWarehouse && s != 0 {
		return fmt.Errorf("pricing: warehouse storage rate is fixed at zero")
	}
	b.srate[n] = s
	return nil
}

// NRate returns the network charging rate of the edge with index i.
func (b *Book) NRate(i int) NRate { return b.nrate[i] }

// SetNRate overrides the rate of one edge.
func (b *Book) SetNRate(i int, n NRate) { b.nrate[i] = n }

// SetEndToEnd overrides the end-to-end rate for an (ordered) node pair.
// Only consulted in EndToEnd mode.
func (b *Book) SetEndToEnd(src, dst topology.NodeID, n NRate) {
	if b.e2e == nil {
		b.e2e = make(map[[2]topology.NodeID]NRate)
	}
	b.e2e[[2]topology.NodeID{src, dst}] = n
}

// EndToEndOverride returns the explicit end-to-end rate for (src, dst), if
// one was set.
func (b *Book) EndToEndOverride(src, dst topology.NodeID) (NRate, bool) {
	n, ok := b.e2e[[2]topology.NodeID{src, dst}]
	return n, ok
}

// PreloadFactor returns the tariff factor applied to bulk pre-load
// transfers (strategic replication). Pre-loads run off the real-time path
// — typically overnight, on otherwise idle capacity — so operators price
// them below the reserved-stream rate. 1 (the default) means no discount.
func (b *Book) PreloadFactor() float64 { return b.preload }

// SetPreloadFactor sets the bulk pre-load tariff factor in (0, 1].
func (b *Book) SetPreloadFactor(f float64) error {
	if f <= 0 || f > 1 {
		return fmt.Errorf("pricing: preload factor must be in (0,1], got %g", f)
	}
	b.preload = f
	return nil
}

// RandomizeSRates assigns every intermediate storage a rate drawn
// uniformly from [lo, hi] (deterministic per seed). The paper notes that
// "per unit cost is inherent to an individual resource entity" (§2.2);
// heterogeneous books model providers whose sites differ in disk cost.
func (b *Book) RandomizeSRates(lo, hi SRate, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, node := range b.topo.Nodes() {
		if node.Kind == topology.KindStorage {
			b.srate[node.ID] = lo + SRate(rng.Float64())*(hi-lo)
		}
	}
}

// RandomizeNRates assigns every link a rate drawn uniformly from [lo, hi]
// (deterministic per seed).
func (b *Book) RandomizeNRates(lo, hi NRate, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range b.nrate {
		b.nrate[i] = lo + NRate(rng.Float64())*(hi-lo)
	}
}

// RouteRate returns the summed per-hop rate along a path given as a node
// sequence. It panics if consecutive nodes are not adjacent.
func (b *Book) RouteRate(path []topology.NodeID) NRate {
	var total NRate
	for i := 1; i < len(path); i++ {
		ei, ok := b.topo.EdgeBetween(path[i-1], path[i])
		if !ok {
			panic(fmt.Sprintf("pricing: path hop %v-%v is not an edge", path[i-1], path[i]))
		}
		total += b.nrate[ei]
	}
	return total
}
