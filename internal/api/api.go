// Package api is the shard protocol: every HTTP body a vspserve shard
// produces and the gateway, the load harness or a client reads. It declares
// bodies and nothing else, so a reader of the wire links no solver, journal
// or server. The producers — server, horizon, sorp — fill these types in
// directly.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// DefaultMaxRequestBytes caps request bodies at 16 MiB — far above any
// legitimate reservation batch, far below a memory-exhaustion payload;
// larger bodies get 413. Both tiers mount it.
const DefaultMaxRequestBytes = 16 << 20

// DecodeStrict decodes data, which must be exactly one JSON value, into v and
// refuses a field v does not declare: a journal record, snapshot or
// replication batch written by a version that knows more must not be applied
// as though the field were not there. Every door through which state enters
// a shard — recovery, snapshot install, a follower's poll — decodes with it.
//
// Request bodies stay lenient on purpose (httpkit.DecodeBody): a strict
// decoder costs a reservation body about four times the bytes json.Unmarshal
// does (≈ 950 B and 7–8 allocations against 248 B and 5), which would take
// the reservation path past its 2× B/op regression gate. A client that needs
// to know a shard read a field it sent learns it from the shard's reply, not
// from a refusal.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("%d bytes after the JSON value", len(rest))
	}
	return nil
}

// ReservationRequest is the POST /v1/reservations body. At is the arrival
// instant on the service's reservation clock; it defaults to the start
// time (a reservation can never arrive later than it starts).
type ReservationRequest struct {
	User  topology.UserID `json:"user"`
	Video media.VideoID   `json:"video"`
	Start simtime.Time    `json:"start"`
	At    *simtime.Time   `json:"at,omitempty"`
}

// Screen refuses what needs no rig to refuse — a negative user, video or
// start, or an arrival after the start — and returns the request with its
// arrival instant. Both doors call it before anything is routed or journaled.
func (r ReservationRequest) Screen() (workload.Request, simtime.Time, error) {
	q := workload.Request{User: r.User, Video: r.Video, Start: r.Start}
	if err := q.Validate(nil, nil); err != nil {
		return q, 0, err
	}
	at := r.Start
	if r.At != nil {
		at = *r.At
	}
	if at > r.Start {
		return q, 0, fmt.Errorf("arrival %v after start %v", at, r.Start)
	}
	return q, at, nil
}

// ReservationResponse is the POST /v1/reservations reply.
type ReservationResponse struct {
	Accepted     bool    `json:"accepted"`
	Pending      int     `json:"pending"`
	PendingBytes float64 `json:"pending_bytes"`
	EpochDue     bool    `json:"epoch_due"`
	Trigger      string  `json:"trigger,omitempty"`
}

// AdvanceRequest is the POST /v1/advance body.
type AdvanceRequest struct {
	To simtime.Time `json:"to"`
}

// PlanState is what a plan reply reports beside its schedule, in the
// reply's field order: the commit horizon, the committed epoch, the
// reservations still pending and Ψ of the committed schedule.
type PlanState struct {
	Horizon simtime.Time `json:"horizon"`
	Epoch   int          `json:"epoch"`
	Pending int          `json:"pending"`
	Cost    units.Money  `json:"cost"`
}

// PlanResponse is the GET /v1/plan reply: the committed schedule and the
// service's rolling-horizon state, all from one reading.
type PlanResponse struct {
	Schedule *schedule.Schedule `json:"schedule"`
	PlanState
}

// PromoteRequest is the POST /v1/replication/promote body. Force skips
// the final drain and caught-up check (for when the primary is
// unreachable and the operator accepts losing the unreplicated suffix —
// acknowledged reservations included, which is why it is never the
// default).
// FenceSource additionally fences the old primary, best-effort, under
// the new epoch.
type PromoteRequest struct {
	Force       bool `json:"force,omitempty"`
	FenceSource bool `json:"fence_source,omitempty"`
}

// PromoteResponse is the POST /v1/replication/promote reply.
type PromoteResponse struct {
	Promoted         bool   `json:"promoted"`
	Epoch            uint64 `json:"epoch"`
	AppliedSeq       uint64 `json:"applied_seq"`
	SourceFenced     bool   `json:"source_fenced,omitempty"`
	SourceFenceError string `json:"source_fence_error,omitempty"`
}

// FenceRequest is the POST /v1/replication/fence body.
type FenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

// FenceResponse is the POST /v1/replication/fence reply.
type FenceResponse struct {
	Fenced bool   `json:"fenced"`
	Epoch  uint64 `json:"epoch"`
}

// Batch is the GET /v1/replication/wal reply: either the journal records
// after the requested sequence, or — when compaction has folded those into
// a snapshot — the full state at SnapshotSeq.
type Batch struct {
	// LeaderEpoch is the primary's leadership epoch; the follower adopts
	// it so a later promotion supersedes it correctly.
	LeaderEpoch uint64 `json:"leader_epoch"`
	// LastSeq is the primary's latest journaled sequence.
	LastSeq uint64 `json:"last_seq"`
	// Records are the journal records after the requested sequence, in
	// order. Empty when the follower is caught up or a snapshot is sent.
	Records []Record `json:"records,omitempty"`
	// Snapshot, when non-empty, is the full-state payload at SnapshotSeq,
	// the layout a snapshot file holds.
	Snapshot    []byte `json:"snapshot,omitempty"`
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
}

// StaleRefusal is the 409 body a node that does not lead answers a GET
// /v1/replication/wal poll with: the stale-leadership error and the highest
// leadership epoch the node has observed. The polling follower adopts
// LeaderEpoch, as it adopts a Batch's, so its own promotion supersedes the
// epoch that fenced its source.
type StaleRefusal struct {
	Error       string `json:"error"`
	LeaderEpoch uint64 `json:"leader_epoch"`
}

// Record is one shipped journal record.
type Record struct {
	Seq uint64 `json:"seq"`
	// CRC is the record's WAL checksum (CRC-32 IEEE over seq + payload),
	// which the follower checks before it applies the record.
	CRC uint32 `json:"crc"`
	// Payload is the journaled operation (base64 in JSON transit).
	Payload []byte `json:"payload"`
}

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready  bool              `json:"ready"`
	Reason string            `json:"reason,omitempty"`
	Status ReplicationStatus `json:"status"`
}

const (
	// RolePrimary is the role a serving primary reports.
	RolePrimary = "primary"
	// StaleLeadership is the text of every refusal made under a superseded
	// leadership epoch: a 409 holding it says the node no longer leads.
	StaleLeadership = "replica: stale leadership epoch"
	// Diverged is the text of a primary's refusal of a follower whose
	// history is not its own: a 409 holding it says the follower must not be
	// promoted.
	Diverged = "replication diverged"
)

// EpochResult is the POST /v1/advance reply: what one epoch close committed.
type EpochResult struct {
	// Epoch is the 0-based index of the epoch just committed.
	Epoch int `json:"epoch"`
	// Horizon is the new commit horizon.
	Horizon simtime.Time `json:"horizon"`
	// Admitted counts the pending reservations planned this epoch.
	Admitted int `json:"admitted"`
	// Replanned counts previously committed requests that were still ahead
	// of the new horizon and were torn up and rescheduled.
	Replanned int `json:"replanned"`
	// FrozenDeliveries and FrozenResidencies count the records carried
	// through untouched.
	FrozenDeliveries  int `json:"frozen_deliveries"`
	FrozenResidencies int `json:"frozen_residencies"`
	// Overflows is the number of storage overflows detected when the
	// incremental per-file schedules were integrated.
	Overflows int `json:"overflows"`
	// Victims lists the SORP rescheduling decisions in order.
	Victims []Victim `json:"victims,omitempty"`
	// Resolution counts the SORP run's work: iterations, pairs rescheduled
	// afresh and pairs reused from an earlier iteration (all zero when the
	// epoch integrated without overflow).
	Resolution Work `json:"resolution"`
	// Cost is Ψ(S) of the committed schedule after this epoch.
	Cost units.Money `json:"cost"`
}

// Victim records one rescheduling decision of overflow resolution, for
// diagnostics and the heat-metric study of Experiment 4. Heat is +Inf for a
// reschedule that cost nothing, which JSON has no number for: on the wire
// the field is a number when finite and otherwise the string strconv gives
// it ("+Inf"), so a victim list round-trips whatever its heats.
type Victim struct {
	Video    media.VideoID
	Node     topology.NodeID
	Window   simtime.Interval
	Heat     float64
	Overhead units.Money
}

// victimJSON is Victim's wire form: the same field names, Heat as wireHeat.
type victimJSON struct {
	Video    media.VideoID
	Node     topology.NodeID
	Window   simtime.Interval
	Heat     wireHeat
	Overhead units.Money
}

// wireHeat is a float64 that survives JSON when it is not finite.
type wireHeat float64

func (h wireHeat) MarshalJSON() ([]byte, error) {
	f := float64(h)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 64)), nil
	}
	return json.Marshal(f)
}

func (h *wireHeat) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(h))
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(math.IsInf(f, 0) || math.IsNaN(f)) {
		return fmt.Errorf("api: victim heat %q is neither a number nor a non-finite float's name", s)
	}
	*h = wireHeat(f)
	return nil
}

func (v Victim) MarshalJSON() ([]byte, error) {
	return json.Marshal(victimJSON{v.Video, v.Node, v.Window, wireHeat(v.Heat), v.Overhead})
}

func (v *Victim) UnmarshalJSON(b []byte) error {
	var w victimJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*v = Victim{w.Video, w.Node, w.Window, float64(w.Heat), w.Overhead}
	return nil
}

// Work counts what a resolution run did: Iterations victim-selection
// rounds, over which Evaluated (overflow, file) pairs were rescheduled
// afresh and Reused pairs were answered from an earlier round's evaluation
// — Rewindowed of those around a window other than the one the evaluation
// ran under. Read-only counters for operators and benchmarks; Reused /
// (Reused + Evaluated) is the reuse hit rate.
type Work struct {
	Iterations int `json:"iterations"`
	Evaluated  int `json:"evaluated"`
	Reused     int `json:"reused"`
	Rewindowed int `json:"rewindowed"`
}

// Add accumulates another run's counts.
func (w *Work) Add(o Work) {
	w.Iterations += o.Iterations
	w.Evaluated += o.Evaluated
	w.Reused += o.Reused
	w.Rewindowed += o.Rewindowed
}

// StatsResponse is the GET /v1/stats reply: the infrastructure's shape
// and tariff summary, the live rolling-horizon state, the overload
// counters and what recovery reconstructed at startup.
type StatsResponse struct {
	Topology topology.Stats `json:"topology"`
	Titles   int            `json:"titles"`
	MeanSize units.Bytes    `json:"mean_title_bytes"`
	Horizon  HorizonStats   `json:"horizon"`
	Overload OverloadStats  `json:"overload"`
	Recovery RecoveryStats  `json:"recovery"`
	// Replication reports the node's role, leadership epoch, applied
	// sequence and (on followers) shipping lag; Ready mirrors /readyz.
	Replication ReplicationStatus `json:"replication"`
	Ready       bool              `json:"ready"`
	// Shard condenses the node's place in a sharded intake tier into the
	// one block a routing gateway's load poller needs (see
	// internal/gateway); present even when unsharded, with an empty ID.
	Shard ShardInfo `json:"shard"`
}

// ShardInfo is the shard block of /v1/stats: the label the node was
// started with (-shard-id), its leadership role, the committed horizon
// epoch and the replication position behind it — everything a placement
// policy needs, in one request per shard.
type ShardInfo struct {
	ID              string `json:"id,omitempty"`
	Role            string `json:"role"`
	Epoch           int    `json:"epoch"`
	LeadershipEpoch uint64 `json:"leadership_epoch"`
	ReplicationLag  uint64 `json:"replication_lag"`
}

// HorizonStats is the rolling-horizon service's live state.
type HorizonStats struct {
	Epoch         int          `json:"epoch"`
	Horizon       simtime.Time `json:"horizon"`
	Pending       int          `json:"pending"`
	CommittedCost units.Money  `json:"committed_cost"`
	Durable       bool         `json:"durable"`
	// Advances counts the epoch closes the node committed, on POST
	// /v1/advance and on its own trigger, and AdvanceMS their cumulative
	// time, so advance lag is observable per node (the gateway's stats
	// report both per shard).
	Advances  uint64 `json:"advances"`
	AdvanceMS int64  `json:"advance_ms"`
	// Resolution sums, over those advances, what overflow resolution did:
	// iterations, (overflow, file) pairs rescheduled afresh, and pairs
	// reused from an earlier iteration — reused/(reused+evaluated) is the
	// reuse hit rate.
	Resolution Work `json:"resolution"`
}

// OverloadStats reports the admission-control counters.
type OverloadStats struct {
	// Shed counts requests rejected with 429 since startup.
	Shed uint64 `json:"shed"`
	// InFlight and MaxInFlight describe current saturation.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// DeadlineExceeded counts requests whose handler came back past the
	// request timeout with nothing written, which the deadline layer
	// answered 503. A handler that noticed the expiry itself and replied
	// 503 is not among them.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
}

// RecoveryStats reports what recovering a durable horizon reconstructed,
// and the durable service's ongoing snapshot health.
type RecoveryStats struct {
	// Recovered is true when any prior state was found on disk.
	Recovered bool `json:"recovered"`
	// SnapshotLoaded is true when a snapshot seeded the state.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// ReplayedSubmits and ReplayedAdvances count the journal records
	// re-executed after the snapshot.
	ReplayedSubmits  int `json:"replayed_submits"`
	ReplayedAdvances int `json:"replayed_advances"`
	// TailTruncated is true when the journal ended mid-record (a torn
	// crash write) and the torn bytes were discarded.
	TailTruncated bool `json:"tail_truncated"`
	// TailTruncations counts torn-tail truncations observed when the
	// journal was opened. Operationally it should stay at 0 or 1 per
	// process life; exported so monitoring can see silent torn-tail
	// repair instead of it living only in a startup log line.
	TailTruncations int `json:"tail_truncations"`
	// SnapshotFailures counts snapshot writes that failed since open.
	// The journal is left un-compacted on failure, so durability is
	// unaffected; a growing count means the data directory needs care.
	SnapshotFailures int `json:"snapshot_failures"`
}

// ReplicationStatus is a node's replication status, served on
// GET /v1/replication/status and folded into /v1/stats and /readyz.
type ReplicationStatus struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// AppliedSeq is the local service's applied journal sequence.
	AppliedSeq uint64 `json:"applied_seq"`
	// Source is the primary URL a follower ships from (empty on primaries
	// and detached followers).
	Source string `json:"source,omitempty"`
	// PrimaryLastSeq is the primary's LastSeq at the latest successful
	// poll; Lag is PrimaryLastSeq - AppliedSeq at that instant.
	PrimaryLastSeq uint64 `json:"primary_last_seq,omitempty"`
	Lag            uint64 `json:"lag"`
	// Synced reports that at least one poll succeeded; CaughtUp that the
	// latest successful poll left no lag. A follower is ready per /readyz
	// only while its shipper runs and both hold.
	Synced   bool `json:"synced"`
	CaughtUp bool `json:"caught_up"`
	// SnapshotsInstalled counts full-state snapshot installs (vs record
	// replay); RecordsApplied counts applied records.
	RecordsApplied     uint64 `json:"records_applied"`
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	// LastError is the most recent poll failure (cleared on success).
	LastError string `json:"last_error,omitempty"`
}
