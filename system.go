package vsp

import (
	"fmt"

	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/bandwidth"
	"github.com/vodsim/vsp/internal/billing"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/online"
	"github.com/vodsim/vsp/internal/optimal"
	"github.com/vodsim/vsp/internal/placement"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/repair"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/vodsim"
)

// System bundles a priced service infrastructure with a catalog: the unit
// everything else operates on. Build one with NewSystem, adjust rates with
// the Set* methods, then call Schedule.
type System struct {
	topo    *Topology
	catalog *Catalog
	book    *pricing.Book
	model   *cost.Model
	stale   bool // rates changed since the routing table was built
}

// NewSystem assembles a system charging every storage the same srate and
// every link the same nrate (the configuration of the paper's sweeps).
// Individual rates can be overridden afterwards with SetStorageRate and
// SetLinkRate.
func NewSystem(topo *Topology, catalog *Catalog, srate SRate, nrate NRate) (*System, error) {
	if topo == nil || catalog == nil {
		return nil, fmt.Errorf("vsp: nil topology or catalog")
	}
	if catalog.Len() == 0 {
		return nil, fmt.Errorf("vsp: empty catalog")
	}
	s := &System{topo: topo, catalog: catalog, book: pricing.Uniform(topo, srate, nrate)}
	s.rebuild()
	return s, nil
}

func (s *System) rebuild() {
	table := routing.NewTable(s.book)
	s.model = cost.NewModel(s.book, table, s.catalog)
	s.stale = false
}

// Topology returns the system's network.
func (s *System) Topology() *Topology { return s.topo }

// Catalog returns the system's title list.
func (s *System) Catalog() *Catalog { return s.catalog }

// SetStorageRate overrides one storage's charging rate. The warehouse's
// rate is fixed at zero.
func (s *System) SetStorageRate(n NodeID, r SRate) error {
	return s.book.SetSRate(n, r)
}

// SetLinkRate overrides one link's charging rate (by edge index). Routing
// is refreshed lazily before the next scheduling call.
func (s *System) SetLinkRate(edge int, r NRate) {
	s.book.SetNRate(edge, r)
	s.stale = true
}

func (s *System) fresh() *cost.Model {
	if s.stale {
		s.rebuild()
	}
	return s.model
}

// Schedule computes a service schedule for the batch with the two-phase
// heuristic.
func (s *System) Schedule(reqs RequestSet, cfg SchedulerConfig) (*Outcome, error) {
	return scheduler.Run(s.fresh(), reqs, cfg)
}

// ScheduleDirect computes the network-only baseline schedule (every
// request streamed straight from the warehouse).
func (s *System) ScheduleDirect(reqs RequestSet) (*Outcome, error) {
	return scheduler.RunDirect(s.fresh(), reqs)
}

// Cost evaluates Ψ(S) for any schedule under the system's rates.
func (s *System) Cost(sched *Schedule) Money {
	return s.fresh().ScheduleCost(sched)
}

// CostSplit returns the storage and network components of Ψ(S).
func (s *System) CostSplit(sched *Schedule) (storage, network Money) {
	b := s.fresh().CostBreakdown(sched)
	return b.Storage, b.Network
}

// Overflows returns the storage over-commit situations of a schedule
// (empty for schedules produced by Schedule, which resolves them).
func (s *System) Overflows(sched *Schedule) []Overflow {
	return scheduler.Overflows(s.topo, s.catalog, sched)
}

// Validate checks a schedule's structural invariants and that it serves
// exactly the given batch.
func (s *System) Validate(sched *Schedule, reqs RequestSet) error {
	return sched.Validate(s.topo, s.catalog, reqs)
}

// Simulate executes a schedule on the event-driven simulator, returning
// per-link and per-node usage and an independently derived cost.
func (s *System) Simulate(sched *Schedule) *SimReport {
	return vodsim.Execute(s.fresh().Book(), s.catalog, sched)
}

// OpenHorizon starts a rolling-horizon intake service over the system:
// reservations stream in via Horizon.Submit, epochs close per the config's
// triggers, and Horizon.Advance incrementally extends the committed
// schedule. The horizon is pinned to the system's rates at open time;
// later SetLinkRate/SetStorageRate calls do not affect it.
func (s *System) OpenHorizon(cfg HorizonConfig) *Horizon {
	return horizon.New(s.fresh(), cfg)
}

// OpenDurableHorizon is OpenHorizon with crash safety: every accepted
// reservation and committed epoch is journaled to a write-ahead log under
// dir (fsync policy per cfg.Fsync) and periodically compacted into
// snapshots, and opening an existing directory recovers the prior state —
// replaying the journal deterministically and holding the snapshot and every
// replayed epoch to the predicate a live epoch commit passes, so what was
// committed and acknowledged always reloads. Close the returned Horizon to
// release the journal.
func (s *System) OpenDurableHorizon(dir string, cfg HorizonConfig) (*Horizon, error) {
	return horizon.Recover(dir, s.fresh(), cfg)
}

// GenerateFaults synthesizes a seeded random fault scenario over the
// system's topology.
func (s *System) GenerateFaults(cfg FaultGenConfig) (*FaultScenario, error) {
	return faults.Generate(s.topo, cfg)
}

// SimulateUnder executes a schedule while injecting the fault scenario:
// copies at dead storages are wiped, streams over dead elements are
// severed or never start, and the report carries the damage tally. A nil
// or empty scenario reproduces Simulate exactly.
func (s *System) SimulateUnder(sched *Schedule, sc *FaultScenario) *SimReport {
	return vodsim.ExecuteScenario(s.fresh().Book(), s.catalog, sched, sc)
}

// Repair builds the failure-aware repaired schedule for sched under the
// scenario: surviving services are kept, dead copies are truncated, and
// every knocked-out future service is re-sourced through the cheapest
// surviving option (alternate copy, re-route, or warehouse fallback).
func (s *System) Repair(sched *Schedule, sc *FaultScenario, opts RepairOptions) (*RepairResult, error) {
	return repair.Repair(s.fresh(), sched, sc, opts)
}

// UniformLinkCapacities caps every link at the same bandwidth, for use
// with ResolveBandwidth.
func (s *System) UniformLinkCapacities(cap BytesPerSec) LinkCapacities {
	return bandwidth.UniformEdges(s.topo, cap)
}

// LinkOverloads returns the saturated-link windows of a schedule under the
// given capacities.
func (s *System) LinkOverloads(sched *Schedule, caps LinkCapacities) []bandwidth.Overload {
	return bandwidth.Analyze(s.topo, s.catalog, sched).Overloads(caps)
}

// ResolveBandwidth reroutes streams around saturated links (the paper's
// future-work extension).
func (s *System) ResolveBandwidth(sched *Schedule, caps LinkCapacities) (*BandwidthResult, error) {
	return bandwidth.Resolve(s.fresh(), sched, caps)
}

// UniformNodeCapacities caps every intermediate storage's I/O bandwidth,
// for use with ResolveNodeBandwidth (the warehouse stays uncapped).
func (s *System) UniformNodeCapacities(cap BytesPerSec) NodeCapacities {
	return bandwidth.UniformNodes(s.topo, cap)
}

// ResolveNodeBandwidth offloads over-committed storage I/O by re-pointing
// the cheapest excess reads at the warehouse (the second half of the
// paper's §6 future work).
func (s *System) ResolveNodeBandwidth(sched *Schedule, caps NodeCapacities) (*NodeBandwidthResult, error) {
	return bandwidth.ResolveNodes(s.fresh(), sched, caps)
}

// Analyze derives cache-effectiveness statistics from a schedule.
func (s *System) Analyze(sched *Schedule) *AnalysisReport {
	return analysis.Summarize(s.fresh(), sched)
}

// Bill attributes a schedule's total cost to its reservations by exact
// marginal attribution; the statement always sums to Cost(sched).
func (s *System) Bill(sched *Schedule) (*BillingStatement, error) {
	return billing.Attribute(s.fresh(), sched)
}

// ScheduleOnline replays the batch through the reactive online baseline
// (nearest-copy service, LRU caches, no batch foreknowledge) and returns
// the cost it incurs — the system the paper's VOR model argues against.
func (s *System) ScheduleOnline(reqs RequestSet) (*OnlineResult, error) {
	return online.Run(s.fresh(), reqs)
}

// OptimalFile exhaustively computes the minimum-cost schedule for one
// file's requests (small request sets only; see optimal.MaxRequests).
func (s *System) OptimalFile(video VideoID, reqs RequestSet) (*FileSchedule, Money, error) {
	return optimal.ScheduleFile(s.fresh(), video, reqs)
}

// PlanPlacement computes a strategic-replication plan: standing copies of
// the expected-hot titles pre-loaded at intermediate storages. Feed the
// plan's Seeds into SchedulerConfig.Seeds. See DESIGN.md for when this
// pays off (spoiler: dynamic en-route caching usually wins).
func (s *System) PlanPlacement(cfg PlacementConfig) (*PlacementPlan, error) {
	return placement.Build(s.fresh(), cfg)
}

// SetPreloadFactor sets the off-peak bulk tariff factor in (0, 1] applied
// to pre-placement transfers.
func (s *System) SetPreloadFactor(f float64) error {
	return s.book.SetPreloadFactor(f)
}

// Audit runs every independent check on a schedule — structural
// validation, capacity feasibility, event-simulator execution with cost
// agreement, and billing consistency — and returns the collected findings;
// a structurally invalid schedule is reported as that one finding, since the
// other checks index by what it says is broken. Use it before trusting a
// schedule that arrived from outside (a file, an API response). It is an
// oracle, not a gate: the serving path commits, recovers and promotes on the
// first two checks alone (Overflows, Validate), and a finding from the rest
// is a bug report.
func (s *System) Audit(sched *Schedule, reqs RequestSet) *AuditReport {
	return audit.Run(s.fresh(), sched, reqs)
}
