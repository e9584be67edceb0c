// Package vsp is a Go implementation of the distributed Video-On-Reservation
// service paradigm of Won & Srivastava, "Distributed Service Paradigm for
// Remote Video Retrieval Request" (HPDC 1997).
//
// The library models a video warehouse, intermediate storages and a priced
// network; maps service schedules to a monetary cost (storage byte·seconds
// plus network bytes, Eqs. 1–4 of the paper); and computes low-cost
// schedules with the paper's two-phase heuristic: greedy per-file
// scheduling followed by heat-ranked storage-overflow resolution. An
// event-driven simulator executes schedules and independently verifies
// feasibility and cost. See the examples directory for end-to-end usage.
//
// The root package is the library: it re-exports the model's types and wires
// the flows that complete in one process — scheduling, cost, simulation,
// faults and repair, billing, the lab's baselines and the rolling horizon.
// The heavy lifting lives in internal packages (topology, pricing, routing,
// media, workload, schedule, cost, occupancy, ivs, sorp, scheduler, horizon,
// vodsim, bandwidth). The serving tier is not part of it: cmd/vspserve and
// cmd/vspgateway are internal/server and internal/gateway, and the paper's
// evaluation is cmd/vspexp over internal/experiment.
package vsp

import (
	"github.com/vodsim/vsp/internal/analysis"
	"github.com/vodsim/vsp/internal/audit"
	"github.com/vodsim/vsp/internal/bandwidth"
	"github.com/vodsim/vsp/internal/billing"
	"github.com/vodsim/vsp/internal/faults"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/ivs"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/occupancy"
	"github.com/vodsim/vsp/internal/online"
	"github.com/vodsim/vsp/internal/placement"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/repair"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/scheduler"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/sorp"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/vodsim"
	"github.com/vodsim/vsp/internal/wal"
	"github.com/vodsim/vsp/internal/workload"
)

// Core model types.
type (
	// Topology is the service network: one warehouse, intermediate
	// storages, links and attached users.
	Topology = topology.Topology
	// TopologyBuilder assembles a Topology node by node.
	TopologyBuilder = topology.Builder
	// TopologySpec is the JSON-serializable form of a Topology.
	TopologySpec = topology.Spec
	// GenConfig parameterizes the topology generators.
	GenConfig = topology.GenConfig
	// NodeID identifies a storage node.
	NodeID = topology.NodeID
	// UserID identifies a subscriber.
	UserID = topology.UserID

	// Catalog is the warehouse's title list.
	Catalog = media.Catalog
	// Video is one title.
	Video = media.Video
	// VideoID identifies a title.
	VideoID = media.VideoID
	// CatalogConfig parameterizes synthetic catalog generation.
	CatalogConfig = media.GenConfig

	// Request is one reservation (user, video, start time).
	Request = workload.Request
	// RequestSet is a reservation batch for one scheduling cycle.
	RequestSet = workload.Set
	// WorkloadConfig parameterizes request-batch generation.
	WorkloadConfig = workload.Config
	// Arrival selects the request start-time process.
	Arrival = workload.Arrival

	// WorkloadPattern composes structured demand — diurnal cycle,
	// premiere flash crowds, rate windows, rank drift, catalog churn and
	// regional cohorts — into a chronological streaming trace
	// (DESIGN.md §14).
	WorkloadPattern = workload.Pattern
	// Diurnal shapes the daily demand cycle of a WorkloadPattern.
	Diurnal = workload.Diurnal
	// FlashCrowd is one premiere rate bump of a WorkloadPattern.
	FlashCrowd = workload.Flash
	// RateWindow scales a WorkloadPattern's rate over an interval.
	RateWindow = workload.Window
	// TraceWriter streams reservation requests out (CSV or JSONL).
	TraceWriter = workload.TraceWriter
	// TraceReader streams reservation requests in, validating each.
	TraceReader = workload.TraceReader

	// Schedule is a complete service schedule (deliveries + residencies).
	Schedule = schedule.Schedule
	// FileSchedule is the schedule of a single title.
	FileSchedule = schedule.FileSchedule
	// Delivery is one network stream record.
	Delivery = schedule.Delivery
	// Residency is one cached-copy record.
	Residency = schedule.Residency

	// Outcome reports a scheduling run (costs, overflows, victims).
	Outcome = scheduler.Outcome
	// SchedulerConfig selects the scheduler's policies.
	SchedulerConfig = scheduler.Config
	// HeatMetric selects the overflow victim-ranking criterion.
	HeatMetric = sorp.HeatMetric
	// CachePolicy selects where streams open tentative caches.
	CachePolicy = ivs.Policy

	// Overflow is a storage over-commit situation.
	Overflow = occupancy.Overflow
	// SimReport is the event simulator's execution report.
	SimReport = vodsim.Report
	// LinkCapacities caps link bandwidth for the feasibility extension.
	LinkCapacities = bandwidth.Capacities
	// BandwidthResult reports a bandwidth-resolution pass.
	BandwidthResult = bandwidth.Result
	// NodeCapacities caps storage I/O bandwidth.
	NodeCapacities = bandwidth.NodeCaps
	// NodeBandwidthResult reports a storage-I/O resolution pass.
	NodeBandwidthResult = bandwidth.NodeResult
	// AnalysisReport holds cache-effectiveness statistics of a schedule.
	AnalysisReport = analysis.Report
	// OnlineResult reports a run of the reactive online baseline.
	OnlineResult = online.Result
	// BillingStatement attributes a schedule's cost to its reservations.
	BillingStatement = billing.Statement
	// BillingLine is one reservation's invoice.
	BillingLine = billing.Line
	// PlacementPlan is a strategic-replication plan of standing copies.
	PlacementPlan = placement.Plan
	// PlacementConfig parameterizes the placement planner.
	PlacementConfig = placement.Config
	// AuditReport collects the findings of System.Audit.
	AuditReport = audit.Report

	// Horizon is a rolling-horizon intake service: it accepts a stream of
	// reservations, groups them into epochs, and incrementally extends a
	// committed schedule at each epoch boundary. Open one with
	// System.OpenHorizon.
	Horizon = horizon.Service
	// HorizonConfig parameterizes a Horizon (caching policy, heat metric,
	// epoch triggers, worker-pool width).
	HorizonConfig = horizon.Config
	// HorizonAck acknowledges one accepted reservation.
	HorizonAck = horizon.Ack
	// HorizonTrigger names the condition that closed an epoch.
	HorizonTrigger = horizon.Trigger
	// EpochResult reports one committed epoch of a Horizon.
	EpochResult = horizon.EpochResult
	// HorizonRecoveryStats reports what System.OpenDurableHorizon found
	// on disk: whether state was recovered, from snapshot or journal
	// replay, and whether a torn final record was truncated.
	HorizonRecoveryStats = horizon.RecoveryStats
	// FsyncPolicy selects how eagerly the durable horizon's write-ahead
	// log is synced to stable storage (see HorizonConfig.Fsync).
	FsyncPolicy = wal.FsyncPolicy

	// FaultScenario is a set of timed infrastructure failures to inject
	// into a schedule execution.
	FaultScenario = faults.Scenario
	// Fault is one timed failure window (node outage, link down, or
	// warehouse brown-out).
	Fault = faults.Fault
	// FaultKind enumerates the failure classes.
	FaultKind = faults.Kind
	// FaultGenConfig parameterizes random fault-scenario generation.
	FaultGenConfig = faults.GenConfig
	// RepairPolicy selects the failure-aware repair strategy.
	RepairPolicy = repair.Policy
	// RepairOptions configures System.Repair.
	RepairOptions = repair.Options
	// RepairResult reports a repair run: the repaired schedule, what was
	// saved, what was lost, and the cost delta vs. the fault-free Ψ(S).
	RepairResult = repair.Result

	// Money is an amount in the charging system's currency.
	Money = units.Money
	// Bytes is a data size.
	Bytes = units.Bytes
	// BytesPerSec is a bandwidth.
	BytesPerSec = units.BytesPerSec
	// Time is an instant in the scheduling cycle (seconds).
	Time = simtime.Time
	// Duration is a span of simulated time (seconds).
	Duration = simtime.Duration

	// SRate is a storage charging rate in $/(byte·second).
	SRate = pricing.SRate
	// NRate is a network charging rate in $/byte.
	NRate = pricing.NRate
)

// Heat metrics (paper Eqs. 8–11).
const (
	Period        = sorp.Period
	PeriodPerCost = sorp.PeriodPerCost
	Space         = sorp.Space
	SpacePerCost  = sorp.SpacePerCost
)

// Caching policies.
const (
	CacheOnRoute       = ivs.CacheOnRoute
	CacheAtDestination = ivs.CacheAtDestination
	NoCaching          = ivs.NoCaching
)

// Fault kinds.
const (
	NodeOutage = faults.NodeOutage
	LinkDown   = faults.LinkDown
	VWBrownout = faults.VWBrownout
)

// Repair policies.
const (
	RepairReroute  = repair.Reroute
	RepairVWDirect = repair.VWDirect
)

// Arrival processes.
const (
	UniformArrival     = workload.Uniform
	EveningPeakArrival = workload.EveningPeak
	SlottedArrival     = workload.Slotted
)

// Epoch triggers reported by Horizon.Submit.
const (
	TriggerRequests = horizon.TriggerRequests
	TriggerBytes    = horizon.TriggerBytes
	TriggerTick     = horizon.TriggerTick
)

// Journal fsync policies for System.OpenDurableHorizon. FsyncAlways never
// loses an acknowledged reservation; FsyncNever leaves syncing to the OS.
const (
	FsyncAlways = wal.FsyncAlways
	FsyncNever  = wal.FsyncNever
)

// ErrLateArrival is returned by Horizon.Submit for a reservation whose
// start time already lies inside the frozen window.
var ErrLateArrival = horizon.ErrLateArrival

// Convenient size, time and rate constructors.
var (
	// GB constructs sizes from gigabytes (fractional allowed).
	GB = units.GBf
	// Mbps constructs bandwidths from megabits per second.
	Mbps = units.Mbps
	// PerGB converts a quoted $/GB network rate to the internal unit.
	PerGB = pricing.PerGB
	// PerGBSec converts a quoted $/(GB·s) storage rate.
	PerGBSec = pricing.PerGBSec
	// PerGBHour converts a quoted $/(GB·hour) storage rate — the
	// calibration the paper's figures imply.
	PerGBHour = pricing.PerGBHour
)

// Time units.
const (
	Second = simtime.Second
	Minute = simtime.Minute
	Hour   = simtime.Hour
	Day    = simtime.Day
)

// NewTopology returns a builder for a custom topology.
func NewTopology() *TopologyBuilder { return topology.NewBuilder() }

// Topology generators.
var (
	StarTopology   = topology.Star
	ChainTopology  = topology.Chain
	TreeTopology   = topology.Tree
	RingTopology   = topology.Ring
	MetroTopology  = topology.Metro
	PaperTopology  = topology.Paper
	RandomTopology = topology.Random
	DecodeTopology = topology.Decode
)

// Catalog constructors.
var (
	UniformCatalog  = media.Uniform
	GenerateCatalog = media.Generate
	NewCatalog      = media.NewCatalog
)

// GenerateWorkload draws a reservation batch for the topology's users.
var GenerateWorkload = workload.Generate

// Reservation trace I/O (CSV: user,video,start_seconds).
var (
	ReadTrace  = workload.ReadCSV
	WriteTrace = workload.WriteCSV
)

// Streaming trace pipeline: pattern generation and the record-at-a-time
// writer/reader pair behind it (CSV and JSONL; see cmd/vspgen -kind trace).
var (
	GeneratePatternWorkload = workload.GeneratePattern
	NewPatternReader        = workload.NewPatternReader
	NewCSVTraceWriter       = workload.NewCSVTraceWriter
	NewCSVTraceReader       = workload.NewCSVTraceReader
	NewJSONLTraceWriter     = workload.NewJSONLTraceWriter
	NewJSONLTraceReader     = workload.NewJSONLTraceReader
	ReadAllTrace            = workload.ReadAllTrace
)
